package cluster

import (
	"reflect"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/invariant"
	"repro/internal/program"
)

// small returns a Config sized for fast integration tests.
func small(apps []*program.Benchmark) Config {
	return Config{
		Apps:           apps,
		TargetInsts:    300_000,
		IntervalCycles: 20_000,
		Seed:           "cluster-test",
	}
}

func apps(names ...string) []*program.Benchmark {
	out := make([]*program.Benchmark, len(names))
	for i, n := range names {
		b := program.ByName(n)
		if b == nil {
			panic("unknown benchmark " + n)
		}
		out[i] = b
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty app list accepted")
	}
	if _, err := New(Config{Apps: []*program.Benchmark{nil}}); err == nil {
		t.Error("nil benchmark accepted")
	}
	if _, err := New(Config{Apps: apps("bzip2"), NumOoO: 2, Memoize: true, HasOoO: true}); err == nil {
		t.Error("multi-OoO Mirage accepted (single producer only)")
	}
	if _, err := New(Config{Apps: apps("bzip2"), Memoize: true}); err == nil {
		t.Error("Memoize without HasOoO accepted (no producer fills the SCs)")
	}
}

// TestAllOoOIgnoresMemoize: a Homo-OoO cluster has no producer to memoize
// with, so AllOoO overrides HasOoO and Memoize and the run equals AllOoO
// alone.
func TestAllOoOIgnoresMemoize(t *testing.T) {
	run := func(mirage bool) *Result {
		cfg := small(apps("hmmer", "mcf"))
		cfg.AllOoO = true
		cfg.HasOoO = mirage
		cfg.Memoize = mirage
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
	if plain, mirage := run(false), run(true); !reflect.DeepEqual(plain, mirage) {
		t.Errorf("AllOoO with Memoize gave %+v, want AllOoO alone's %+v", mirage, plain)
	}
}

func TestHomoInORunsToCompletion(t *testing.T) {
	cfg := small(apps("bzip2", "namd"))
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.Insts < cfg.TargetInsts {
			t.Errorf("%s retired %d instructions, target %d", a.Name, a.Insts, cfg.TargetInsts)
		}
		if a.IPC <= 0 || a.IPC > 3 {
			t.Errorf("%s IPC %v out of range", a.Name, a.IPC)
		}
		if a.EnergyPJ.Total() <= 0 {
			t.Errorf("%s consumed no energy", a.Name)
		}
		if a.OoOCycles != 0 || a.Migrations != 0 {
			t.Errorf("%s touched the (absent) OoO", a.Name)
		}
	}
	if res.OoOActiveCycles != 0 {
		t.Error("Homo-InO reported OoO activity")
	}
	if res.RunCycles <= 0 || res.WallCycles <= 0 {
		t.Error("run accounting missing")
	}
}

func TestAllOoOFasterThanAllInO(t *testing.T) {
	mix := apps("hmmer", "milc")
	ino, _ := New(small(mix))
	ri, err := ino.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfgO := small(mix)
	cfgO.AllOoO = true
	ooo, _ := New(cfgO)
	ro, err := ooo.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ri.Apps {
		if ro.Apps[i].IPC <= ri.Apps[i].IPC {
			t.Errorf("%s: OoO IPC %v should beat InO IPC %v",
				ri.Apps[i].Name, ro.Apps[i].IPC, ri.Apps[i].IPC)
		}
	}
}

func TestMirageMemoizesAndMigrates(t *testing.T) {
	cfg := small(apps("hmmer", "bzip2", "gcc"))
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.Arbiter = arbiter.NewSCMPKI()
	cfg.TargetInsts = 600_000
	cl, _ := New(cfg)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	var memoized, migrations int64
	for _, a := range res.Apps {
		memoized += a.MemoizedInsts
		migrations += int64(a.Migrations)
	}
	if memoized == 0 {
		t.Error("no instructions were memoized on a memoizable mix")
	}
	if migrations == 0 {
		t.Error("no migrations occurred")
	}
	if res.BusTransferCycles == 0 {
		t.Error("migrations generated no bus traffic")
	}
}

func TestMigrationChargesSCTransfer(t *testing.T) {
	cfg := small(apps("hmmer", "bzip2", "gcc"))
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.Arbiter = arbiter.NewFair() // forces constant migration
	cfg.TargetInsts = 400_000
	cl, _ := New(cfg)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SCTransferCyclesTotal == 0 {
		t.Error("SC transfers cost nothing under constant migration")
	}
	if res.Migrations == 0 {
		t.Error("fair arbitration produced no migrations")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := small(apps("bzip2", "astar"))
		cfg.HasOoO = true
		cfg.Memoize = true
		cfg.Arbiter = arbiter.NewSCMPKI()
		cl, _ := New(cfg)
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Apps {
		if a.Apps[i].IPC != b.Apps[i].IPC || a.Apps[i].Cycles != b.Apps[i].Cycles {
			t.Errorf("run not deterministic for %s: %v/%v vs %v/%v",
				a.Apps[i].Name, a.Apps[i].IPC, a.Apps[i].Cycles, b.Apps[i].IPC, b.Apps[i].Cycles)
		}
	}
	if a.TotalEnergyPJ != b.TotalEnergyPJ {
		t.Errorf("energy not deterministic: %v vs %v", a.TotalEnergyPJ, b.TotalEnergyPJ)
	}
}

func TestTimelineRecorded(t *testing.T) {
	cfg := small(apps("bzip2", "gcc"))
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.Arbiter = arbiter.NewSCMPKI()
	cl, _ := New(cfg)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if len(a.Timeline) == 0 {
			t.Fatalf("%s has no timeline", a.Name)
		}
		for _, iv := range a.Timeline {
			if iv.IPC < 0 || iv.IPC > 3.5 {
				t.Errorf("%s interval IPC %v out of range", a.Name, iv.IPC)
			}
		}
	}
}

func TestPingPongCostsPerformance(t *testing.T) {
	mix := apps("bzip2")
	base, _ := New(small(mix))
	rb, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := small(mix)
	cfg.PingPongEvery = 1
	cfg.DrainCycles = 2000 // exaggerated to make the loss visible at 20k-cycle intervals
	moved, _ := New(cfg)
	rm, err := moved.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Apps[0].IPC >= rb.Apps[0].IPC {
		t.Errorf("ping-pong IPC %v should be below stable IPC %v", rm.Apps[0].IPC, rb.Apps[0].IPC)
	}
}

func TestTraditionalHetNoMemoization(t *testing.T) {
	cfg := small(apps("hmmer", "bzip2"))
	cfg.HasOoO = true
	cfg.Memoize = false
	cfg.Arbiter = arbiter.NewMaxSTP()
	cl, _ := New(cfg)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.MemoizedInsts != 0 {
			t.Errorf("%s memoized %d instructions on a traditional Het-CMP", a.Name, a.MemoizedInsts)
		}
	}
	if res.OoOActiveCycles == 0 {
		t.Error("maxSTP left the OoO idle")
	}
}

func TestMultiOoOTraditional(t *testing.T) {
	cfg := small(apps("hmmer", "bzip2", "gcc", "astar", "milc"))
	cfg.HasOoO = true
	cfg.NumOoO = 3
	cfg.Arbiter = arbiter.NewMaxSTP()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With 3 OoO slots, several apps run there each interval.
	onOoO := 0
	for _, a := range res.Apps {
		if a.OoOCycles > 0 {
			onOoO++
		}
	}
	if onOoO < 3 {
		t.Errorf("only %d apps ever reached the 3 OoO cores", onOoO)
	}
	// Utilization normalizes per OoO core: it must stay <= ~1.
	util := float64(res.OoOActiveCycles) / float64(res.RunCycles)
	if util > 1.01 {
		t.Errorf("per-core OoO utilization %v exceeds 1", util)
	}
}

func TestCompletionSnapshotFreezesEnergy(t *testing.T) {
	cfg := small(apps("hmmer", "astar"))
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.Arbiter = arbiter.NewSCMPKI()
	cl, _ := New(cfg)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Apps {
		// The snapshot covers exactly TargetInsts of work; live counters
		// kept running afterward.
		if a.Insts != cfg.TargetInsts {
			t.Errorf("app %d reported %d insts, want the target %d", i, a.Insts, cfg.TargetInsts)
		}
		live := cl.apps[i].ledger.energy.Total()
		if a.EnergyPJ.Total() > live {
			t.Errorf("snapshot energy %v exceeds live accumulator %v", a.EnergyPJ.Total(), live)
		}
	}
}

func TestBroadcastSCFillsAllConsumers(t *testing.T) {
	// Eight homogeneous "threads": with broadcast, one producer visit fills
	// every consumer's SC, so threads that never visit the OoO still replay.
	threads := make([]*program.Benchmark, 4)
	for i := range threads {
		threads[i] = program.ByName("bzip2")
	}
	cfg := small(threads)
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.BroadcastSC = true
	cfg.Arbiter = arbiter.NewSCMPKI()
	cfg.TargetInsts = 500_000
	cl, _ := New(cfg)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	replaying := 0
	for _, a := range res.Apps {
		if a.MemoizedInsts > 0 {
			replaying++
		}
	}
	if replaying < len(threads) {
		t.Errorf("only %d/%d homogeneous threads replayed schedules under broadcast",
			replaying, len(threads))
	}
	// Broadcast transfers ride the bus: more SC traffic than migrations
	// alone would explain.
	if res.SCTransferCyclesTotal < cfg.SCTransferCycles*2 {
		t.Errorf("broadcast generated almost no SC bus traffic (%d cycles)", res.SCTransferCyclesTotal)
	}
}

func TestSoftwareArbitrationRuns(t *testing.T) {
	cfg := small(apps("bzip2", "gcc", "hmmer"))
	cfg.HasOoO = true
	cfg.Memoize = true
	cfg.Arbiter = arbiter.NewSoftware(arbiter.NewSCMPKI(), 8)
	cl, _ := New(cfg)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.IPC <= 0 {
			t.Errorf("%s made no progress under software arbitration", a.Name)
		}
	}
}

func TestBusContentionDelaysCoRunners(t *testing.T) {
	// A constantly-migrating mix under heavy transfer costs must slow the
	// co-running application relative to a contention-free bus.
	run := func(share float64) float64 {
		cfg := small(apps("hmmer", "namd", "bzip2"))
		cfg.HasOoO = true
		cfg.Memoize = true
		cfg.Arbiter = arbiter.NewFair()
		cfg.SCTransferCycles = 4000
		cfg.BusContentionShare = share
		cl, _ := New(cfg)
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, a := range res.Apps {
			sum += a.IPC
		}
		return sum
	}
	free := run(-1) // negative disables (delay rounds to <= 0)
	contended := run(0.5)
	if contended >= free {
		t.Errorf("bus contention did not cost throughput: %v vs %v", contended, free)
	}
}

// engineCounts returns how many measurements an ooo.Core or ino.Core made
// and how many of them asked its pipeline engine for the probe (the
// unexported Engine.measures and Engine.probes; reflection reads them, as
// no package outside pipeline may).
func engineCounts(core any) (measures, probes int64) {
	eng := reflect.ValueOf(core).Elem().FieldByName("eng").Elem()
	return eng.FieldByName("measures").Int(), eng.FieldByName("probes").Int()
}

// TestOnlyTheProducerProbes pins which measurements ask the pipeline engine
// for the probe, the issue order a Recording keeps: every OoO measurement
// of a Mirage cluster, whose producer records schedules, and nothing else —
// no in-order or replay measurement, and no OoO measurement of a Homo-OoO
// or traditional cluster.
func TestOnlyTheProducerProbes(t *testing.T) {
	mirage := small(apps("astar", "hmmer", "mcf"))
	mirage.HasOoO = true
	mirage.Memoize = true
	mirage.Arbiter = arbiter.NewSCMPKI()

	traditional := small(apps("hmmer", "bzip2", "mcf"))
	traditional.HasOoO = true
	traditional.NumOoO = 2
	traditional.Arbiter = arbiter.NewMaxSTP()

	homo := small(apps("hmmer", "mcf"))
	homo.AllOoO = true

	for _, c := range []struct {
		name string
		cfg  Config
	}{{"mirage", mirage}, {"traditional", traditional}, {"homo-ooo", homo}} {
		cl, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		var oooMeasures, oooProbes, inoMeasures, inoProbes int64
		for _, a := range cl.apps {
			m, p := engineCounts(a.oooC)
			oooMeasures, oooProbes = oooMeasures+m, oooProbes+p
			m, p = engineCounts(a.inoC)
			inoMeasures, inoProbes = inoMeasures+m, inoProbes+p
		}
		wantOoO := int64(0)
		if c.cfg.Memoize {
			wantOoO = oooMeasures
			if inoMeasures == 0 {
				t.Errorf("%s: no in-order measurement to check", c.name)
			}
		}
		if oooMeasures == 0 {
			t.Errorf("%s: no OoO measurement to check", c.name)
		}
		if oooProbes != wantOoO || inoProbes != 0 {
			t.Errorf("%s: %d of %d OoO and %d of %d in-order measurements probed, want %d and 0",
				c.name, oooProbes, oooMeasures, inoProbes, inoMeasures, wantOoO)
		}
	}
}

// strayArbiter grants the OoO to an index past every app it is offered.
type strayArbiter struct{}

func (strayArbiter) Name() string                              { return "stray" }
func (strayArbiter) Decide(apps []arbiter.AppState, _ int) int { return len(apps) + 7 }

// TestAuditCatchesStrayDecision plants an arbiter that picks an app it was
// not offered: the audit records arbiter.decision violations, and the same
// cluster under a valid arbiter records none.
func TestAuditCatchesStrayDecision(t *testing.T) {
	for _, c := range []struct {
		arb  arbiter.Arbiter
		want bool
	}{{arbiter.NewMaxSTP(), false}, {strayArbiter{}, true}} {
		cfg := small(apps("hmmer", "bzip2"))
		cfg.HasOoO = true
		cfg.Arbiter = c.arb
		aud := invariant.New(nil)
		cfg.Audit = aud
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		got := false
		for _, v := range aud.Violations() {
			got = got || v.Check == "arbiter.decision"
		}
		if got != c.want {
			t.Errorf("%s: arbiter.decision recorded %v, want %v (%v)", c.arb.Name(), got, c.want, aud.Err())
		}
	}
}
