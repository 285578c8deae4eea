// Package energy is the McPAT-substitute power, energy and area model.
// Core engines count microarchitectural events (Events); this package turns
// them into per-structure dynamic energy plus leakage, and provides the area
// model behind Figure 6 and the power breakdown behind Figure 9a.
//
// Absolute numbers are synthetic; the model is calibrated to the ratios the
// paper reports: InO ~1/5 the power and under 1/2 the area of the OoO, OinO
// dynamic power 2.4x InO, OoO 2.1x OinO, +10% leakage from the SC, +14%
// dynamic from the bigger PRF and +5.5% from the replay LSQ.
package energy

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Structure identifies a hardware block for the Figure 9a breakdown.
type Structure uint8

const (
	ALUs Structure = iota
	BPred
	CDB // common data bus / bypass network
	DCache
	ICache
	InstBuf
	Decoder
	LQ
	SQ
	PRF
	Rename
	ROB
	Scheduler
	SchedCache
	NumStructures
)

// String implements fmt.Stringer.
func (s Structure) String() string {
	names := [...]string{
		"ALUs", "BPred", "CDB", "D$", "I$", "InstBuff", "Decoder",
		"LQ", "SQ", "PRF", "Rename", "ROB", "Scheduler", "Sched$",
	}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Structure(%d)", uint8(s))
}

// Events counts the microarchitectural activity of one simulated span.
// Core engines fill these in; Compute turns them into Joules.
type Events struct {
	Cycles uint64 // active cycles of the core

	IntOps    uint64 // integer ALU / branch executions
	MulDivOps uint64
	FPOps     uint64

	BPredLookups uint64
	Fetches      uint64 // instructions fetched from the L1I path
	SCFetches    uint64 // instructions fetched from the Schedule Cache
	Decodes      uint64

	RenameOps uint64 // OoO register renames
	ROBWrites uint64 // OoO dispatches
	SchedOps  uint64 // OoO scheduler wakeup/select events
	PRFReads  uint64
	PRFWrites uint64
	LQOps     uint64
	SQOps     uint64
	L1DAccess uint64
	L1IAccess uint64
	CDBBcasts uint64 // result broadcasts
	Squashes  uint64 // pipeline / trace squashes
}

// ClassEvents returns the per-class events of iters iterations of t: its
// integer, multiply/divide and FP operations and its branch-predictor
// lookups. Every core engine counts these alike; the rest of Events is
// theirs to fill.
func ClassEvents(t *trace.Trace, iters int) Events {
	c := t.ClassCounts()
	n := uint64(iters)
	return Events{
		IntOps:       n * uint64(c[isa.IntALU]+c[isa.Branch]),
		BPredLookups: n * uint64(c[isa.Branch]),
		MulDivOps:    n * uint64(c[isa.IntMul]+c[isa.IntDiv]),
		FPOps:        n * uint64(c[isa.FPAdd]+c[isa.FPMul]+c[isa.FPDiv]),
	}
}

// CoreKind selects which structure set and coefficients apply.
type CoreKind uint8

const (
	// KindOoO is the 3-wide out-of-order producer core.
	KindOoO CoreKind = iota
	// KindInO is the plain in-order core (no OinO structures active).
	KindInO
	// KindOinO is the in-order core executing in OinO (schedule replay)
	// mode: the expanded PRF, replay LSQ and SC are active.
	KindOinO
)

// String implements fmt.Stringer.
func (k CoreKind) String() string {
	switch k {
	case KindOoO:
		return "OoO"
	case KindInO:
		return "InO"
	case KindOinO:
		return "OinO"
	}
	return "CoreKind?"
}

// Coefficients: dynamic energy per event in picojoules, chosen so that the
// paper's power ratios emerge at typical activity factors (see the
// calibration test in this package).
type coeff struct {
	perEvent [NumStructures]float64 // pJ per event
	leakage  [NumStructures]float64 // pJ per cycle (leakage power proxy)
}

var coeffs = map[CoreKind]coeff{
	KindOoO: {
		perEvent: [NumStructures]float64{
			ALUs:       6.0,
			BPred:      4.0,
			CDB:        9.0,
			DCache:     22.0,
			ICache:     16.0,
			InstBuf:    3.0,
			Decoder:    5.0,
			LQ:         10.0,
			SQ:         8.0,
			PRF:        9.0,
			Rename:     12.0,
			ROB:        16.0,
			Scheduler:  20.0,
			SchedCache: 0,
		},
		leakage: [NumStructures]float64{
			ALUs: 10, BPred: 4, CDB: 6, DCache: 18, ICache: 14, InstBuf: 2,
			Decoder: 3, LQ: 7, SQ: 6, PRF: 10, Rename: 7, ROB: 14,
			Scheduler: 16, SchedCache: 0,
		},
	},
	KindInO: {
		perEvent: [NumStructures]float64{
			ALUs:       6.0,
			BPred:      4.0,
			CDB:        2.0,
			DCache:     22.0,
			ICache:     16.0,
			InstBuf:    2.0,
			Decoder:    5.0,
			LQ:         2.0,
			SQ:         2.0,
			PRF:        4.0,
			Rename:     0,
			ROB:        0,
			Scheduler:  0,
			SchedCache: 0,
		},
		leakage: [NumStructures]float64{
			ALUs: 7, BPred: 3, CDB: 1.5, DCache: 13, ICache: 10, InstBuf: 1,
			Decoder: 2, LQ: 1, SQ: 1, PRF: 3, SchedCache: 0,
		},
	},
	KindOinO: {
		perEvent: [NumStructures]float64{
			ALUs:       6.0,
			BPred:      4.0,
			CDB:        2.0,
			DCache:     22.0,
			ICache:     16.0,
			InstBuf:    2.0,
			Decoder:    5.0,
			LQ:         5.0, // replay LSQ active (+5.5% dynamic per paper)
			SQ:         4.0,
			PRF:        6.5, // 128-entry versioned PRF (+14% dynamic)
			Rename:     0,
			ROB:        0,
			Scheduler:  0,
			SchedCache: 3.5, // fetching trace blocks from the small 8KB SC
		},
		leakage: [NumStructures]float64{
			ALUs: 7, BPred: 3, CDB: 1.5, DCache: 13, ICache: 10, InstBuf: 1,
			Decoder: 2, LQ: 2, SQ: 1.8, PRF: 4.5,
			SchedCache: 3.5, // +10% leakage from the SC
		},
	},
}

// Breakdown is per-structure energy in picojoules.
type Breakdown [NumStructures]float64

// Total sums the breakdown.
func (b Breakdown) Total() float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// Valid reports whether every component is finite and non-negative — the
// well-formedness half of the audit's energy-closure invariant (DESIGN.md
// §11): a NaN or negative component would vanish into an otherwise
// plausible Total.
func (b Breakdown) Valid() bool {
	for _, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return true
}

// Compute converts events into a per-structure energy breakdown (pJ) for a
// core of the given kind.
func Compute(kind CoreKind, ev Events) Breakdown {
	c := coeffs[kind]
	var b Breakdown
	act := func(s Structure, n uint64) { b[s] += c.perEvent[s] * float64(n) }

	act(ALUs, ev.IntOps+ev.MulDivOps*3+ev.FPOps*3)
	act(BPred, ev.BPredLookups)
	act(CDB, ev.CDBBcasts)
	act(DCache, ev.L1DAccess)
	act(ICache, ev.L1IAccess)
	act(InstBuf, ev.Fetches+ev.SCFetches)
	act(Decoder, ev.Decodes)
	act(LQ, ev.LQOps)
	act(SQ, ev.SQOps)
	act(PRF, ev.PRFReads+ev.PRFWrites)
	act(Rename, ev.RenameOps)
	act(ROB, ev.ROBWrites*2) // write at dispatch, read at commit
	act(Scheduler, ev.SchedOps)
	act(SchedCache, ev.SCFetches)

	for s := Structure(0); s < NumStructures; s++ {
		b[s] += c.leakage[s] * float64(ev.Cycles)
	}
	return b
}

// IdleLeakagePJ returns leakage energy for a powered-on but idle core over
// the given cycles. A power-gated core consumes zero (Section 4.2 assumes
// instantaneous power gating of the OoO).
func IdleLeakagePJ(kind CoreKind, cycles uint64) float64 {
	c := coeffs[kind]
	var t float64
	for s := Structure(0); s < NumStructures; s++ {
		t += c.leakage[s]
	}
	return t * float64(cycles)
}

// Area model (mm^2), including private L1s and, for OinO, the SC plus the
// expanded PRF and replay LSQ. Chosen to reproduce Figure 6:
// a traditional 4:1 Het-CMP is ~1.55x a 4:0 Homo-InO, and the OinO
// additions cost ~23% more of that baseline.
const (
	// AreaOoO is the OoO core plus its private L1 caches.
	AreaOoO = 2.86
	// AreaInO is the plain InO core plus its private L1 caches.
	AreaInO = 1.30
	// AreaOinO adds the 8KB SC, expanded PRF and replay LSQ to an InO.
	AreaOinO = AreaInO + 0.30
)

// ClusterArea returns the area of a CMP built from the given core counts.
func ClusterArea(nOoO, nInO, nOinO int) float64 {
	return float64(nOoO)*AreaOoO + float64(nInO)*AreaInO + float64(nOinO)*AreaOinO
}
