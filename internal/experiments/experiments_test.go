package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// tinyScale keeps shape tests fast; the quick/full scales are exercised by
// the repository's benchmark harness.
var tinyScale = Scale{
	Name:              "tiny",
	TargetInsts:       700_000,
	IntervalCycles:    25_000,
	MixesPerPoint:     1,
	NValues:           []int{4, 8},
	TimelineIntervals: 80,
}

// pct parses a "NN%" cell back into a fraction.
func pct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cell), "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v / 100
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	rep, err := Table1(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 26 {
		t.Fatalf("Table 1 has %d rows", len(rep.Table.Rows))
	}
	for _, row := range rep.Table.Rows {
		ratio := pct(t, row[2])
		switch row[1] {
		case "HPD":
			if ratio >= 0.66 {
				t.Errorf("%s: HPD with IPC ratio %v", row[0], ratio)
			}
		case "LPD":
			if ratio < 0.54 {
				t.Errorf("%s: LPD with IPC ratio %v", row[0], ratio)
			}
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	rep, err := Figure1(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Table.Rows
	perfHPD, perfLPD := pct(t, rows[0][2]), pct(t, rows[0][3])
	if perfHPD >= perfLPD {
		t.Errorf("HPD relative perf (%v) must be below LPD (%v)", perfHPD, perfLPD)
	}
	power := pct(t, rows[1][1])
	if power < 0.12 || power > 0.35 {
		t.Errorf("InO power %v of OoO, want ~1/5", power)
	}
	energy := pct(t, rows[2][1])
	if energy >= 0.75 {
		t.Errorf("InO energy %v of OoO, want well below 1", energy)
	}
	area := pct(t, rows[3][1])
	if area >= 0.5 {
		t.Errorf("InO area %v of OoO, want under half", area)
	}
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	rep, err := Figure2(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Table.Rows
	fracHPD, fracLPD := pct(t, rows[0][2]), pct(t, rows[0][3])
	if fracHPD <= fracLPD {
		t.Errorf("HPD memoizable fraction (%v) should exceed LPD (%v)", fracHPD, fracLPD)
	}
	overall := pct(t, rows[0][1])
	if overall < 0.5 || overall > 0.95 {
		t.Errorf("overall memoizable fraction %v, paper ~0.75", overall)
	}
	// Oracle replay performance beats plain InO by a wide margin (Figure 1
	// has HPD at ~0.27 plain).
	perfHPD := pct(t, rows[1][2])
	if perfHPD < 0.45 {
		t.Errorf("oracle HPD performance %v of OoO, want a large boost over plain InO", perfHPD)
	}
}

func TestFigure3bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	rep, err := Figure3b(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Table.Rows
	// Switching overhead shrinks monotonically with interval length...
	first := pct(t, rows[0][1])
	last := pct(t, rows[len(rows)-1][1])
	if first >= last {
		t.Errorf("migration overhead should shrink with interval length: %v .. %v", first, last)
	}
	if first > 0.95 {
		t.Errorf("1K-cycle switching shows no penalty (%v)", first)
	}
	if last < 0.985 {
		t.Errorf("10M-cycle switching still penalized (%v)", last)
	}
	// ...while memoizability decays.
	memoFirst := pct(t, rows[0][2])
	memoLast := pct(t, rows[len(rows)-1][2])
	if memoFirst <= memoLast {
		t.Errorf("memoizability should decay with interval length: %v .. %v", memoFirst, memoLast)
	}
}

func TestFigure5Correlation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	spike, base, err := Figure5Correlation(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("P(migrate | ΔSC-MPKI spike) = %.2f vs base %.2f", spike, base)
	if spike <= base {
		t.Errorf("ΔSC-MPKI spikes should precede migrations: %.2f vs %.2f", spike, base)
	}
}

func TestFigure6Shape(t *testing.T) {
	rep := Figure6(tinyScale)
	for _, row := range rep.Table.Rows {
		inO, mirage, trad := pct(t, row[1]), pct(t, row[2]), pct(t, row[3])
		if !(inO < trad && trad < mirage && mirage < 1) {
			t.Errorf("n=%s: area ordering violated: InO=%v trad=%v mirage=%v", row[0], inO, trad, mirad(mirage))
		}
	}
	// The paper's 4:1 anchors: traditional ~1.55x of Homo-InO, OinO
	// additions ~+23%.
	row4 := rep.Table.Rows[0]
	inO, mirage, trad := pct(t, row4[1]), pct(t, row4[2]), pct(t, row4[3])
	if r := trad / inO; r < 1.4 || r > 1.7 {
		t.Errorf("4:1 traditional / Homo-InO = %.2f, paper ~1.55", r)
	}
	if d := (mirage - trad) / inO; d < 0.1 || d > 0.4 {
		t.Errorf("OinO additions %.2f of baseline, paper ~0.23", d)
	}
}

func mirad(f float64) float64 { return f }

func TestFigure9aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	rep, err := Figure9a()
	if err != nil {
		t.Fatal(err)
	}
	find := func(structure string) (o, i, r float64) {
		for _, row := range rep.Table.Rows {
			if row[0] == structure {
				return pct(t, row[1]), pct(t, row[2]), pct(t, row[3])
			}
		}
		t.Fatalf("structure %q missing", structure)
		return
	}
	// The OoO spends a visible share on rename/ROB/scheduler; the others
	// spend none.
	for _, s := range []string{"Rename", "ROB", "Scheduler"} {
		o, i, r := find(s)
		if o <= 0 {
			t.Errorf("OoO %s share %v, want > 0", s, o)
		}
		if i != 0 || r != 0 {
			t.Errorf("%s billed on in-order cores: InO=%v OinO=%v", s, i, r)
		}
	}
	// Only the OinO spends on the Schedule Cache.
	o, i, r := find("Sched$")
	if o != 0 || i != 0 || r <= 0 {
		t.Errorf("Sched$ shares OoO=%v InO=%v OinO=%v", o, i, r)
	}
}

func TestFairnessCap(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	mix := core.RandomMixes(core.MixRandom, 8, 1, "fair-cap")[0]
	byPolicy, err := OoOShares(context.Background(), tinyScale, "shares", mix, []core.Arm{{core.PolicySCMPKIFair, core.TopologyMirage}})
	if err != nil {
		t.Fatal(err)
	}
	shares := byPolicy[core.PolicySCMPKIFair]
	for i, s := range shares {
		// Each app stays near or below its 1/8 share of total time
		// (Section 5.3); allow slack for the staleness escape hatch.
		if s > 0.125+0.06 {
			t.Errorf("app %d (%s) holds %.0f%% of OoO time under SC-MPKI-fair", i, mix[i], s*100)
		}
	}
}

func TestMaxSTPStarves(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	mix := core.RandomMixes(core.MixRandom, 8, 1, "starve")[0]
	byPolicy, err := OoOShares(context.Background(), tinyScale, "shares", mix, []core.Arm{{core.PolicyMaxSTP, core.TopologyTraditional}})
	if err != nil {
		t.Fatal(err)
	}
	shares := byPolicy[core.PolicyMaxSTP]
	max, min := 0.0, 1.0
	for _, s := range shares {
		if s > max {
			max = s
		}
		if s < min {
			min = s
		}
	}
	if max < 3*(min+0.01) {
		t.Errorf("maxSTP shares suspiciously even: max %.2f min %.2f", max, min)
	}
}

// TestHeadlineChecksScaleFirst: a scale without the n = 8 point fails
// before any simulation runs, not after the whole sweep.
func TestHeadlineChecksScaleFirst(t *testing.T) {
	s := TinyScale
	s.Name = "headline-no-n8"
	s.Telemetry = &telemetry.Telemetry{Registry: telemetry.NewRegistry()}
	if _, err := Headline(context.Background(), s); err == nil || !strings.Contains(err.Error(), "does not sweep n=8") {
		t.Fatalf("Headline at n=%v: err %v, want a missing n=8 error", s.NValues, err)
	}
	if names := s.Telemetry.Registry.CounterNames(); len(names) != 0 {
		t.Fatalf("Headline simulated before rejecting its scale: %d counters published", len(names))
	}
}

func TestHeadlineBands(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	rep, err := Headline(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Table.Rows
	perf := pct(t, rows[0][1])
	egy := pct(t, rows[1][1])
	area := pct(t, rows[2][1])
	t.Logf("headline: perf=%v energy=%v area=%v (paper: 0.84 / 0.45 / 0.74)", perf, egy, area)
	if perf < 0.7 || perf > 0.97 {
		t.Errorf("8:1 performance %v outside the paper's band (~0.84)", perf)
	}
	if egy < 0.3 || egy > 0.65 {
		t.Errorf("8:1 energy %v outside the paper's band (~0.45)", egy)
	}
	if area < 0.6 || area > 0.8 {
		t.Errorf("8:1 area %v outside the paper's band (~0.74)", area)
	}
}

func TestSCSizePlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	stp, err := SCSizeNumbers(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("STP by SC size %v: %v", SCSizes, stp)
	// 8KB (index 2) captures most of the benefit of 32KB (index 4)...
	if stp[2] < stp[4]-0.06 {
		t.Errorf("8KB STP %.2f far below 32KB %.2f: no plateau", stp[2], stp[4])
	}
	// ...and a 2KB SC should not beat the larger configurations outright.
	if stp[0] > stp[4]+0.03 {
		t.Errorf("2KB STP %.2f above 32KB %.2f", stp[0], stp[4])
	}
}
