package energy

import (
	"math"
	"testing"
)

// typicalEvents approximates one thousand instructions of steady execution
// on each core kind, with the activity factors the engines produce.
func typicalEvents(kind CoreKind) Events {
	const n = 1000
	ev := Events{
		IntOps:       n * 6 / 10,
		FPOps:        n / 10,
		MulDivOps:    n / 20,
		BPredLookups: n / 10,
		Decodes:      n,
		PRFReads:     2 * n,
		PRFWrites:    3 * n / 4,
		LQOps:        n / 4,
		SQOps:        n / 10,
		L1DAccess:    n / 3,
	}
	switch kind {
	case KindOoO:
		ev.Cycles = n * 10 / 25 // IPC 2.5
		ev.Fetches = n
		ev.L1IAccess = n / 2
		ev.RenameOps = n
		ev.ROBWrites = n
		ev.SchedOps = n
		ev.CDBBcasts = 3 * n / 4
	case KindInO:
		ev.Cycles = n * 10 / 13 // IPC 1.3
		ev.Fetches = n
		ev.L1IAccess = n / 2
	case KindOinO:
		ev.Cycles = n * 10 / 23 // IPC 2.3 (near-OoO replay)
		ev.SCFetches = n
		ev.L1IAccess = n / 8
		ev.BPredLookups = n / 40
	}
	return ev
}

func power(kind CoreKind) float64 {
	ev := typicalEvents(kind)
	return Compute(kind, ev).Total() / float64(ev.Cycles)
}

// TestPowerRatios pins the model to the paper's reported relationships:
// OoO ~2.1x OinO power, OinO ~2.4x InO power, OoO ~5x InO power (Fig 1,
// Section 5.2). Bands are generous: the exact ratio depends on workload
// activity factors.
func TestPowerRatios(t *testing.T) {
	pO, pI, pR := power(KindOoO), power(KindInO), power(KindOinO)
	t.Logf("power pJ/cyc: OoO=%.1f InO=%.1f OinO=%.1f (OoO/OinO=%.2f OinO/InO=%.2f OoO/InO=%.2f)",
		pO, pI, pR, pO/pR, pR/pI, pO/pI)
	if r := pO / pR; r < 1.8 || r > 3.2 {
		t.Errorf("OoO/OinO power ratio %.2f outside [1.8, 3.2] (paper: 2.1)", r)
	}
	if r := pR / pI; r < 1.6 || r > 3.0 {
		t.Errorf("OinO/InO power ratio %.2f outside [1.6, 3.0] (paper: 2.4)", r)
	}
	if r := pO / pI; r < 4.0 || r > 7.0 {
		t.Errorf("OoO/InO power ratio %.2f outside [4, 7] (paper: ~5)", r)
	}
}

// TestOoOOnlyStructures: InO and OinO must bill nothing to rename, ROB or
// scheduler — they do not have them (the heart of the energy win).
func TestOoOOnlyStructures(t *testing.T) {
	for _, kind := range []CoreKind{KindInO, KindOinO} {
		ev := typicalEvents(kind)
		ev.RenameOps = 500 // even if misreported, coefficients are zero
		ev.ROBWrites = 500
		ev.SchedOps = 500
		b := Compute(kind, ev)
		if b[Rename] != 0 || b[ROB] != 0 || b[Scheduler] != 0 {
			t.Errorf("%v bills OoO-only structures: rename=%v rob=%v sched=%v",
				kind, b[Rename], b[ROB], b[Scheduler])
		}
	}
}

// TestOinOSurcharges: the OinO structures must cost something relative to
// plain InO (bigger PRF, replay LSQ, SC), per Section 3.3.2.
func TestOinOSurcharges(t *testing.T) {
	ev := typicalEvents(KindInO)
	bI := Compute(KindInO, ev)
	evR := ev
	evR.SCFetches = ev.Fetches
	evR.Fetches = 0
	bR := Compute(KindOinO, evR)
	if bR[PRF] <= bI[PRF] {
		t.Errorf("versioned PRF (%.0f) should cost more than InO PRF (%.0f)", bR[PRF], bI[PRF])
	}
	if bR[LQ] <= bI[LQ] {
		t.Errorf("replay LSQ (%.0f) should cost more than InO LQ (%.0f)", bR[LQ], bI[LQ])
	}
	if bR[SchedCache] == 0 {
		t.Error("SC fetches must consume energy in OinO mode")
	}
	if bI[SchedCache] != 0 {
		t.Error("plain InO mode must not bill the SC")
	}
}

func TestBreakdownTotal(t *testing.T) {
	var b Breakdown
	b[ALUs] = 2.5
	b[ROB] = 1.5
	if b.Total() != 4 {
		t.Errorf("total %v", b.Total())
	}
}

func TestComputeLinearInEvents(t *testing.T) {
	ev := typicalEvents(KindOoO)
	double := ev
	double.Cycles *= 2
	double.IntOps *= 2
	double.FPOps *= 2
	double.MulDivOps *= 2
	double.BPredLookups *= 2
	double.Fetches *= 2
	double.Decodes *= 2
	double.RenameOps *= 2
	double.ROBWrites *= 2
	double.SchedOps *= 2
	double.PRFReads *= 2
	double.PRFWrites *= 2
	double.LQOps *= 2
	double.SQOps *= 2
	double.L1DAccess *= 2
	double.L1IAccess *= 2
	double.CDBBcasts *= 2
	e1 := Compute(KindOoO, ev).Total()
	e2 := Compute(KindOoO, double).Total()
	if math.Abs(e2-2*e1) > 1e-6*e1 {
		t.Errorf("energy not linear: %v vs 2x%v", e2, e1)
	}
}

func TestIdleLeakageOrdering(t *testing.T) {
	const cyc = 1000
	lO := IdleLeakagePJ(KindOoO, cyc)
	lI := IdleLeakagePJ(KindInO, cyc)
	lR := IdleLeakagePJ(KindOinO, cyc)
	if !(lO > lR && lR > lI) {
		t.Errorf("leakage ordering wrong: OoO=%v OinO=%v InO=%v", lO, lR, lI)
	}
	// The SC adds roughly 10% leakage to the InO (Section 3.3.2).
	if r := lR / lI; r < 1.02 || r > 1.5 {
		t.Errorf("OinO/InO leakage ratio %.2f, want modest increase", r)
	}
}

// TestAreaModel pins the Figure 6 relationships: a traditional 4:1 Het-CMP
// is ~1.55x the area of 4 InO cores, and the OinO structures add ~23% more
// of that baseline; InO is under half the OoO.
func TestAreaModel(t *testing.T) {
	if AreaInO >= AreaOoO/2 {
		t.Errorf("InO area %.2f not under half of OoO %.2f", AreaInO, AreaOoO)
	}
	base := ClusterArea(0, 4, 0)
	trad := ClusterArea(1, 4, 0)
	mirage := ClusterArea(1, 0, 4)
	if r := trad / base; r < 1.45 || r > 1.65 {
		t.Errorf("4:1 traditional / 4:0 InO = %.2f, want ~1.55", r)
	}
	if d := (mirage - trad) / base; d < 0.15 || d > 0.35 {
		t.Errorf("OinO additions cost %.2f of baseline, want ~0.23", d)
	}
	// Mirage 8:1 is ~65-80% of 8 OoO cores (paper: 74-75%).
	if r := ClusterArea(1, 0, 8) / ClusterArea(8, 0, 0); r < 0.6 || r > 0.85 {
		t.Errorf("Mirage 8:1 area ratio %.2f", r)
	}
}

func TestStructureStrings(t *testing.T) {
	for s := Structure(0); s < NumStructures; s++ {
		if s.String() == "" {
			t.Errorf("structure %d unnamed", s)
		}
	}
	if Structure(99).String() != "Structure(99)" {
		t.Error("unknown structure formatting")
	}
	for _, k := range []CoreKind{KindOoO, KindInO, KindOinO} {
		if k.String() == "CoreKind?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}
