package cluster

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/telemetry"
)

// runInstrumented executes a small Mirage cluster with full telemetry.
func runInstrumented(t *testing.T) (*telemetry.Telemetry, *Result) {
	t.Helper()
	tel := telemetry.New()
	cfg := small(apps("bzip2", "hmmer", "milc"))
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.Arbiter = arbiter.NewSCMPKI()
	cfg.Telemetry = tel
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tel, res
}

func TestTelemetryEndToEnd(t *testing.T) {
	tel, res := runInstrumented(t)

	m := tel.Reg().Snapshot()
	// Per-core pipeline stall and measurement counters exist and moved.
	var sawStall, sawMeasure bool
	for name, v := range m.Counters {
		if strings.Contains(name, ".stall_") && v > 0 {
			sawStall = true
		}
		if strings.HasSuffix(name, ".measures") && v > 0 {
			sawMeasure = true
		}
	}
	if !sawMeasure {
		t.Error("no core measurement counters moved")
	}
	if !sawStall {
		t.Error("no stall-by-cause counters moved")
	}
	// Repeated measurements are answered from the engines' result memos;
	// each core's hits are a subset of its measurement requests.
	var memoHits int64
	for name, v := range m.Counters {
		if core, ok := strings.CutSuffix(name, ".memo_hits"); ok {
			memoHits += v
			if req := m.Counters[core+".measures"]; v > req {
				t.Errorf("%s = %d exceeds %s.measures = %d", name, v, core, req)
			}
		}
	}
	if memoHits == 0 {
		t.Error("no result-memo hit counters moved")
	}
	// Per-core SC counters: memoizing runs must record hits or misses.
	var scLookups int64
	for name, v := range m.Counters {
		if strings.HasSuffix(name, ".sc.hits") || strings.HasSuffix(name, ".sc.misses") {
			scLookups += v
		}
	}
	if scLookups == 0 {
		t.Error("no Schedule-Cache lookup counters moved")
	}
	// Arbitration decisions were recorded under the policy's name.
	var decisions int64
	for name, v := range m.Counters {
		if strings.HasPrefix(name, "arbiter.SC-MPKI.") {
			decisions += v
		}
	}
	if decisions == 0 {
		t.Error("no arbitration decision counters moved")
	}
	// The memory hierarchy published its cache counters at run end.
	if m.Counters["core0.mem.l1d.accesses"] == 0 {
		t.Error("missing cache counters")
	}
	if _, ok := m.Gauges["cluster.wall_cycles"]; !ok {
		t.Error("missing end-of-run gauges")
	}

	// Trace sink: thread metadata, per-core counter tracks on every
	// interval, warmup included, and one handoff and one tenure per move
	// onto the OoO. The migration counter and the tenure histogram cover
	// the measured window only: the handoffs after the warmup intervals.
	// The Mirage cluster warms up for three intervals per app.
	warm := 3 * len(res.Apps)
	migrations := m.Counters["cluster.migrations"]
	if migrations != int64(res.Migrations) || migrations == 0 {
		t.Errorf("cluster.migrations = %d, Result.Migrations = %d; want equal and nonzero", migrations, res.Migrations)
	}
	phases := map[string]int{}
	names := map[string]int{}
	var tenures, measuredHandoffs int64
	for _, ev := range tel.Sink().Events() {
		phases[ev.Ph]++
		names[ev.Name]++
		if strings.HasPrefix(ev.Name, "tenure:") && ev.Ph == "X" {
			tenures++
		}
		if ev.Name == "handoff" && ev.Ts > int64(warm)*small(nil).IntervalCycles {
			measuredHandoffs++
		}
	}
	if phases["M"] < 4 { // 3 core lanes + producer lane
		t.Errorf("thread metadata events = %d", phases["M"])
	}
	if handoffs := int64(names["handoff"]); handoffs != tenures || handoffs <= migrations {
		t.Errorf("handoffs = %d, tenures = %d; want equal, and above the measured window's %d migrations", handoffs, tenures, migrations)
	}
	if hist := m.Histograms["arbiter.tenure_intervals"].Count; measuredHandoffs != migrations || hist != migrations {
		t.Errorf("handoffs after warmup = %d, tenure histogram count = %d, cluster.migrations = %d; want all equal", measuredHandoffs, hist, migrations)
	}
	for i := range res.Apps {
		track := fmt.Sprintf("core%d", i)
		if got, want := names[track], warm+len(res.Apps[i].Timeline); got != want {
			t.Errorf("%s: %d counter track events, want one per interval, %d", track, got, want)
		}
	}
}

func TestTelemetryDisabledIsInert(t *testing.T) {
	cfg := small(apps("bzip2", "hmmer"))
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.Arbiter = arbiter.NewSCMPKI()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cl.sink != nil {
		t.Fatal("trace sink attached without config")
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	// Instrumented and uninstrumented runs of the same config must produce
	// identical results: observation must not change the system.
	run := func(tel *telemetry.Telemetry) *Result {
		cfg := small(apps("bzip2", "hmmer", "astar"))
		cfg.HasOoO = true
		cfg.Memoize = true
		cfg.Arbiter = arbiter.NewSCMPKI()
		cfg.Telemetry = tel
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	instrumented := run(telemetry.New())
	if plain.WallCycles != instrumented.WallCycles ||
		plain.Migrations != instrumented.Migrations ||
		plain.Intervals != instrumented.Intervals {
		t.Errorf("telemetry perturbed the run: %+v vs %+v", plain, instrumented)
	}
	for i := range plain.Apps {
		if plain.Apps[i].IPC != instrumented.Apps[i].IPC {
			t.Errorf("app %d IPC differs: %v vs %v", i, plain.Apps[i].IPC, instrumented.Apps[i].IPC)
		}
	}
}

// TestWarmupIntervals pins the warmup length: three intervals per app when
// an arbitrator rotates apps through the OoO core, four for a homogeneous
// CMP. They head every app's timeline, and Result.Timeline starts after
// them.
func TestWarmupIntervals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mirage bool
		want   int
	}{
		{"Mirage", true, 6},
		{"Homo-InO", false, 4},
	} {
		cfg := small(apps("bzip2", "hmmer"))
		if tc.mirage {
			cfg.HasOoO = true
			cfg.Memoize = true
			cfg.Arbiter = arbiter.NewSCMPKI()
		}
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range cl.apps {
			measured := res.Apps[i].Timeline
			if warm := len(a.timeline) - len(measured); warm != tc.want {
				t.Errorf("%s app %d: %d warmup intervals, want %d", tc.name, i, warm, tc.want)
			}
			if len(measured) != res.Intervals || &measured[0] != &a.timeline[len(a.timeline)-len(measured)] {
				t.Errorf("%s app %d: Result.Timeline is not the timeline's measured tail", tc.name, i)
			}
		}
	}
}

// TestBroadcastSCTransferCounter checks that the published SC-transfer
// counter includes the cycles broadcast receivers pay and equals the
// Result's total: counting only the departing app's transfers fell short,
// and counting the warmup intervals overshot.
func TestBroadcastSCTransferCounter(t *testing.T) {
	tel := telemetry.New()
	cfg := small(apps("bzip2", "bzip2", "bzip2", "bzip2"))
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.BroadcastSC = true
	cfg.Arbiter = arbiter.NewSCMPKI()
	cfg.TargetInsts = 500_000
	cfg.Telemetry = tel
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := tel.Reg().Snapshot().Counters["cluster.sc_transfer_cycles"]
	if res.SCTransferCyclesTotal == 0 || got != res.SCTransferCyclesTotal {
		t.Errorf("cluster.sc_transfer_cycles = %d, Result.SCTransferCyclesTotal = %d; want equal and nonzero", got, res.SCTransferCyclesTotal)
	}
}

// TestMeasureModeLabels checks measure's CPU-profile labels: each mode's
// context carries its name, and setting one on the goroutine and clearing
// it again allocates nothing.
func TestMeasureModeLabels(t *testing.T) {
	for m, want := range map[mode]string{modeInO: "ino", modeOinO: "oino", modeOoO: "ooo"} {
		if got, ok := pprof.Label(modeLabels[m], "mode"); !ok || got != want {
			t.Errorf("mode %d labelled %q (set %v), want %q", m, got, ok, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		pprof.SetGoroutineLabels(modeLabels[modeOoO])
		pprof.SetGoroutineLabels(context.Background())
	})
	if allocs != 0 {
		t.Errorf("labelling a measurement allocates %v times", allocs)
	}
}
