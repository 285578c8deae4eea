// Package cluster simulates a Mirage Cores cluster (Figure 4): n InO cores
// around one producer OoO, all sharing a coherent bus to the L2 level. The
// simulation is interval-driven: every application runs on its current core
// for one arbitration interval, counters are collected, the arbitrator
// decides who occupies the OoO next, and migrations pay their pipeline,
// L1-warmup and Schedule-Cache-transfer costs over the bus.
//
// The same machinery also models the paper's baselines: a homogeneous OoO
// CMP, a homogeneous InO CMP, and a traditional (non-memoizing) Het-CMP.
package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"repro/internal/arbiter"
	"repro/internal/energy"
	"repro/internal/ino"
	"repro/internal/invariant"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/program"
	"repro/internal/schedcache"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// maxIntervals bounds a run's measured intervals as a safety net.
const maxIntervals = 10_000

// Config describes one cluster run.
type Config struct {
	// Apps are the benchmarks to run, one per InO core (or per OoO core in
	// an all-OoO configuration).
	Apps []*program.Benchmark

	// HasOoO adds the producer OoO core.
	HasOoO bool
	// NumOoO is the number of OoO cores (default 1). More than one is only
	// supported on traditional (non-memoizing) Het-CMPs — Kumar-style
	// configurations like the 5:3 CMP of Figure 14. Mirage keeps a single
	// schedule producer per cluster.
	NumOoO int
	// AllOoO runs every application on a private OoO core (the Homo-OoO
	// baseline). There is no producer OoO to share, so New clears HasOoO
	// and Memoize.
	AllOoO bool
	// Memoize enables the Mirage machinery (OinO mode + Schedule Caches);
	// false models a traditional Het-CMP. It needs HasOoO: the producer OoO
	// fills the Schedule Caches.
	Memoize bool

	// Arbiter decides OoO occupancy each interval (nil: OoO stays idle).
	Arbiter arbiter.Arbiter

	// IntervalCycles is the arbitration interval (the paper's 1M cycles;
	// scaled down by default to keep runs fast — see DESIGN.md §2).
	IntervalCycles int64
	// TargetInsts is the per-application instruction budget; applications
	// finishing early restart until all complete (Section 4.1).
	TargetInsts int64
	// PingPongEvery forces every application to switch between two
	// dedicated identical cores every N intervals (Figure 3b's setup:
	// "two applications on three identical cores, with one application
	// switching between two of them"). Both cores belong to the app, so
	// its L1 contents survive across visits; the cost is the pipeline
	// drain and state transfer. 0 disables.
	PingPongEvery int

	// BroadcastSC enables the multithreaded extension of Section 6: when
	// the workload's threads perform homogeneous work (the same program on
	// every core), one memoization pass on the OoO serves the whole
	// cluster — the producer SC is broadcast to every consumer SC on
	// eviction, speeding up all threads with one memoization attempt. The
	// unidirectional broadcast pays one bus transfer per consumer.
	BroadcastSC bool

	// SCCapacityBytes sizes the Schedule Caches (8 KB default).
	SCCapacityBytes int
	// SCTransferCycles is the bus cost of shipping SC contents on migration
	// (~1000 cycles for 8 KB over the 32 B bus, Section 4.2).
	SCTransferCycles int64
	// DrainCycles is the pipeline drain/architectural state transfer cost.
	DrainCycles int64
	// BusContentionShare is the fraction of a migration's bus occupancy
	// that delays each co-running application (the bus serializes all
	// off-core communication, Section 3.3.3; the paper measured the effect
	// to be slight). Defaults to 0.1.
	BusContentionShare float64

	// Seed names the deterministic random stream for this run. Every random
	// decision the cluster makes derives from this name via internal/xrand,
	// and a Cluster holds no state shared with other instances, so two runs
	// with equal Configs produce identical Results even when simulated on
	// concurrent goroutines — the property the parallel experiment engine
	// (internal/runner, DESIGN.md §8) is built on.
	Seed string

	// Telemetry, when non-nil, receives the run's metrics (per-core stall,
	// SC and migration counters) and trace events: a measure event as each
	// measurement is made, and when the run ends, the per-interval counter
	// tracks, squashes, schedule handoffs and OoO tenures its timeline
	// records. Nil (the default) disables all instrumentation at near-zero
	// cost.
	Telemetry *telemetry.Telemetry

	// Audit, when non-nil, threads invariant checks through the whole run
	// (DESIGN.md §11): every pipeline measurement, every arbitration
	// decision, OoO occupancy, and end-of-run energy-accounting closure.
	// Violations are recorded on the Auditor; the run itself proceeds.
	Audit *invariant.Auditor
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.IntervalCycles <= 0 {
		c.IntervalCycles = 100_000
	}
	if c.TargetInsts <= 0 {
		c.TargetInsts = 3_000_000
	}
	if c.SCCapacityBytes <= 0 {
		c.SCCapacityBytes = schedcache.DefaultCapacityBytes
	}
	if c.SCTransferCycles <= 0 {
		c.SCTransferCycles = 1000
	}
	if c.NumOoO <= 0 {
		c.NumOoO = 1
	}
	if c.DrainCycles <= 0 {
		c.DrainCycles = 100
	}
	if c.BusContentionShare == 0 {
		c.BusContentionShare = 0.1
	}
	if c.Seed == "" {
		c.Seed = "cluster"
	}
	return c
}

// IntervalStat is one application's record of one interval (timelines for
// Figures 5 and 10, and everything the run's telemetry publishes per
// interval).
type IntervalStat struct {
	OnOoO       bool
	IPC         float64
	SCMPKI      float64
	DeltaSCMPKI float64
	Insts       int64
	// MemoizedInsts and SquashedIters are the interval's OinO replay
	// instructions and misspeculated replay iterations.
	MemoizedInsts int64
	SquashedIters int64
}

// AppResult is the per-application outcome of a run.
type AppResult struct {
	Name string
	// Insts and Cycles cover execution up to TargetInsts completion.
	Insts  int64
	Cycles int64
	IPC    float64
	// OoOCycles is time spent occupying the producer OoO.
	OoOCycles int64
	// MemoizedInsts counts instructions executed as OinO schedule replays.
	MemoizedInsts int64
	// Migrations counts moves onto the OoO.
	Migrations int
	// SCTransferCycles and L1RefillCycles are this app's accumulated
	// migration costs (Figure 15).
	SCTransferCycles int64
	L1RefillCycles   int64
	// EnergyPJ is the application's total core energy, by structure.
	EnergyPJ energy.Breakdown
	// Timeline holds per-interval stats.
	Timeline []IntervalStat
}

// Result is the outcome of a cluster run.
type Result struct {
	Apps []AppResult
	// WallCycles is when the last application completed its target.
	WallCycles int64
	// RunCycles is the total simulated (post-warmup) time: measured
	// intervals times the interval length. The denominator for OoO
	// utilization, and the window of the run totals below.
	RunCycles int64
	// OoOActiveCycles counts intervals (in cycles) the OoO was occupied.
	OoOActiveCycles int64
	// TotalEnergyPJ includes active core energy plus idle leakage of
	// powered-on cores (the OoO power-gates when idle).
	TotalEnergyPJ float64
	// BusTransferCycles accumulates migration traffic (SC + state).
	BusTransferCycles int64
	// SCTransferCyclesTotal is the SC share of migration cost (Figure 15).
	SCTransferCyclesTotal int64
	// Migrations counts moves onto the OoO and forced ping-pong switches.
	Migrations int
	Intervals  int
}

// app is the runtime state of one application.
type app struct {
	idx   int
	bench *program.Benchmark
	mem   *mem.Hierarchy
	sc    *schedcache.Cache // consumer SC contents (travels with the app)
	inoC  *ino.Core
	oooC  *ooo.Core
	rng   *xrand.Rand

	walkers map[trace.ID][]*mem.Walker

	instsRetired int64
	cycles       int64 // local cycles consumed (== wall, apps run in lockstep intervals)
	completedAt  int64

	// onOoO is the one record of who occupies the OoO cores.
	onOoO   bool
	penalty int64 // cycles charged at the start of the next interval

	// Cost cache: steady per-iteration measurements per trace and mode.
	costs map[costKey]*measurement

	// arb holds the counters the arbitrator polls (Eqs 1 and 2); arbitrate
	// fills in OnOoO and Util when it offers them.
	arb arbiter.AppState
	// memoCreditCyc is the memoized share of Eq 3's utilization.
	memoCreditCyc float64

	// ledger counts the measured window, the one record of each run total;
	// done freezes a copy of it when the app first reaches its instruction
	// target: restarted execution (Section 4.1) keeps the cluster contended
	// but must not distort per-app comparisons.
	ledger ledger
	done   *ledger
	// timeline records every interval, the warmup intervals at its head
	// included.
	timeline []IntervalStat
}

// ledger is an app's accumulated run cost. Evictions drain like
// migrations; ping-pong switches stay off the bus.
type ledger struct {
	energy                          energy.Breakdown
	oooCycles                       int64
	memoizedInsts                   int64
	migrations, evictions, switches int
	scXferCycles                    int64
	l1Refills                       int64
}

// final is the ledger the app reports: frozen at completion, live if the
// app never completed.
func (a *app) final() ledger {
	if a.done != nil {
		return *a.done
	}
	return a.ledger
}

type mode uint8

const (
	modeInO mode = iota
	modeOinO
	modeOoO
)

type costKey struct {
	id trace.ID
	m  mode
}

type measurement struct {
	cyclesPerIter float64
	perIterEnergy energy.Breakdown
	// rec is the Mirage producer's recording of an OoO measurement, and
	// sched the schedule built from it the first time the producer judges
	// it (see schedule).
	rec        ooo.Recording
	sched      *trace.Schedule
	squashRate float64
	// coldIters counts down iterations executed under the initial (cold
	// cache) measurement before a warm re-measurement replaces it.
	coldIters int
}

// schedule returns the schedule recorded by an OoO measurement, building
// it on first use.
func (ms *measurement) schedule() *trace.Schedule {
	if ms.sched == nil {
		ms.sched = ms.rec.Schedule()
	}
	return ms.sched
}

// Cluster is a configured simulation ready to run.
type Cluster struct {
	cfg  Config
	apps []*app

	producerSC *schedcache.Cache
	recorder   *ooo.Recorder
	rng        *xrand.Rand

	// warm is the number of warmup intervals at the head of every app's
	// timeline.
	warm int
	// Arbitration totals over the measured window, published by
	// finalizeTelemetry: picks granted and decisions that power the OoO
	// down, and the last decision's first pick (-1: power-gated).
	grants, powerDowns int64
	lastOwner          int

	// sink receives a measure event per genuine pipeline measurement (nil
	// when tracing is off), stamped with intervalStart, the wall cycle the
	// current interval began at.
	sink          *telemetry.TraceSink
	intervalStart int64
}

// New builds a cluster. It returns an error for unusable configurations.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("cluster: no applications")
	}
	for i, b := range cfg.Apps {
		if b == nil {
			return nil, fmt.Errorf("cluster: nil benchmark at %d", i)
		}
	}
	if cfg.AllOoO {
		cfg.HasOoO = false
		cfg.Memoize = false
	}
	if cfg.Memoize && !cfg.HasOoO {
		return nil, fmt.Errorf("cluster: Memoize needs the producer OoO (HasOoO)")
	}
	if cfg.NumOoO > 1 && cfg.Memoize {
		return nil, fmt.Errorf("cluster: Mirage uses a single schedule producer (NumOoO=%d with Memoize)", cfg.NumOoO)
	}
	root := xrand.NewString("cluster:" + cfg.Seed)
	c := &Cluster{cfg: cfg, rng: root.Fork("arb"), lastOwner: -1, sink: cfg.Telemetry.Sink()}
	if cfg.HasOoO {
		c.producerSC = schedcache.New(cfg.SCCapacityBytes)
		c.recorder = ooo.NewRecorder(root.Fork("rec"))
	}
	for i, b := range cfg.Apps {
		h := mem.NewHierarchy()
		ar := root.Fork(fmt.Sprintf("app%d:%s", i, b.Name))
		a := &app{
			idx:     i,
			arb:     arbiter.AppState{Index: i},
			bench:   b,
			mem:     h,
			inoC:    ino.New(h, ar.Fork("ino")),
			oooC:    ooo.New(h, ar.Fork("ooo")),
			rng:     ar,
			walkers: make(map[trace.ID][]*mem.Walker),
			costs:   make(map[costKey]*measurement),
		}
		if cfg.Memoize {
			a.sc = schedcache.New(cfg.SCCapacityBytes)
		}
		if cfg.Audit != nil {
			a.inoC.AttachAudit(cfg.Audit, fmt.Sprintf("%s/app%d.ino", cfg.Seed, i))
			a.oooC.AttachAudit(cfg.Audit, fmt.Sprintf("%s/app%d.ooo", cfg.Seed, i))
			h.AttachAudit(cfg.Audit, fmt.Sprintf("%s/app%d.mem", cfg.Seed, i))
		}
		c.apps = append(c.apps, a)
	}
	return c, nil
}

// Run executes the simulation to completion and returns the result. A
// cluster runs once: Run hands its apps' cache models on to later clusters
// (mem.Hierarchy.Release).
func (c *Cluster) Run() (*Result, error) {
	// Warmup intervals run before measurement starts: caches and Schedule
	// Caches fill and the arbitrator reaches steady rotation, then all
	// counters reset. They stand in for the billions of instructions that
	// amortize cold-start in the paper's runs.
	warm := 4 // homogeneous CMPs only need cache warmup
	if c.cfg.HasOoO {
		// Long enough for the arbitration rotation to visit everyone.
		warm = 3 * len(c.apps)
	}
	c.warm = warm
	interval := 0
	for ; interval < maxIntervals+warm; interval++ {
		c.intervalStart = int64(interval) * c.cfg.IntervalCycles
		c.runInterval()
		if interval == warm-1 {
			c.resetCounters()
			continue
		}
		if interval >= warm && c.allDone() {
			break
		}
		if c.cfg.HasOoO && c.cfg.Arbiter != nil {
			c.arbitrate(interval)
		}
		if p := c.cfg.PingPongEvery; p > 0 && (interval+1)%p == 0 {
			for _, a := range c.apps {
				a.penalty += c.cfg.DrainCycles
				a.ledger.switches++
			}
		}
	}
	res := &Result{Intervals: interval + 1 - warm}
	res.RunCycles = int64(res.Intervals) * c.cfg.IntervalCycles
	c.finalize(res)
	for _, a := range c.apps {
		a.mem.Release()
	}
	return res, nil
}

// resetCounters zeroes measurement state after warmup while preserving
// microarchitectural state (caches, Schedule Caches, arbitration history).
func (c *Cluster) resetCounters() {
	for _, a := range c.apps {
		a.instsRetired = 0
		a.cycles = 0
		a.completedAt = 0
		a.memoCreditCyc = 0
		a.ledger = ledger{}
		a.done = nil
	}
	c.grants, c.powerDowns = 0, 0
}

func (c *Cluster) allDone() bool {
	for _, a := range c.apps {
		if a.completedAt == 0 {
			return false
		}
	}
	return true
}

// runInterval advances every application by one interval.
func (c *Cluster) runInterval() {
	for _, a := range c.apps {
		onOoO := c.cfg.AllOoO || a.onOoO
		budget := c.cfg.IntervalCycles - a.penalty
		a.penalty = 0
		if budget < 0 {
			budget = 0
		}
		st := c.runApp(a, onOoO, budget)
		st.OnOoO = onOoO
		a.timeline = append(a.timeline, st)
		a.cycles += c.cfg.IntervalCycles
		if a.onOoO {
			a.ledger.oooCycles += c.cfg.IntervalCycles
			a.arb.IntervalsSinceOoO = 0
		} else {
			a.arb.IntervalsSinceOoO++
		}
		if a.completedAt == 0 && a.instsRetired >= c.cfg.TargetInsts {
			// runApp records the exact crossing cycle in completedAt when it
			// happens mid-interval; fall back to the interval boundary.
			a.completedAt = a.cycles
			a.freeze()
		}
	}
}

// freeze records the ledger at target completion.
func (a *app) freeze() {
	done := a.ledger
	a.done = &done
}

// runApp executes one application for `budget` cycles on its current core.
func (c *Cluster) runApp(a *app, onOoO bool, budget int64) IntervalStat {
	st := IntervalStat{}
	if budget == 0 {
		return st
	}
	var cycles float64
	var insts int64
	var scMisses, scInsts int64

	phaseIdx := a.bench.PhaseAt(a.instsRetired)
	phase := &a.bench.Phases[phaseIdx]
	weights := loopWeights(phase)

	for cycles < float64(budget) {
		// Phase change mid-interval?
		if p := a.bench.PhaseAt(a.instsRetired); p != phaseIdx {
			phaseIdx = p
			phase = &a.bench.Phases[phaseIdx]
			weights = loopWeights(phase)
		}
		l := &phase.Loops[a.rng.Pick(weights)]
		t := l.Trace

		m := modeInO
		var sched *trace.Schedule
		switch {
		case onOoO:
			m = modeOoO
		case c.cfg.Memoize:
			if s, ok := a.lookupSC(t); ok {
				m = modeOinO
				sched = s
			}
		}

		ms := c.measure(a, l, m, sched)
		if ms.cyclesPerIter <= 0 {
			ms.cyclesPerIter = 1
		}

		// Burst: enough iterations for ~2000 cycles, capped by the budget.
		iters := int(2000.0/ms.cyclesPerIter) + 1
		if rem := float64(budget) - cycles; float64(iters)*ms.cyclesPerIter > rem {
			iters = int(rem/ms.cyclesPerIter) + 1
		}
		if ms.coldIters > 0 {
			if iters > ms.coldIters {
				iters = ms.coldIters
			}
			ms.coldIters -= iters
			if ms.coldIters <= 0 {
				// Warm now: re-measure on next use.
				delete(a.costs, costKey{t.ID, m})
			}
		}

		n := int64(iters) * int64(t.Len())
		cycles += float64(iters) * ms.cyclesPerIter
		insts += n
		a.instsRetired += n
		if a.completedAt == 0 && a.instsRetired >= c.cfg.TargetInsts {
			// Exact completion point within the interval (a.cycles still
			// holds the interval-start wall time here).
			a.completedAt = a.cycles + int64(cycles) + (c.cfg.IntervalCycles - budget)
			a.freeze()
		}
		for s := energy.Structure(0); s < energy.NumStructures; s++ {
			a.ledger.energy[s] += ms.perIterEnergy[s] * float64(iters)
		}

		switch m {
		case modeOinO:
			a.ledger.memoizedInsts += n
			st.MemoizedInsts += n
			st.SquashedIters += int64(float64(iters)*ms.squashRate + 0.5)
			a.memoCreditCyc += float64(iters) * ms.cyclesPerIter * c.replaySpeedup(a)
			scInsts += n
		case modeInO:
			if c.cfg.Memoize {
				scInsts += n
				scMisses += int64(iters)
			}
		case modeOoO:
			c.produce(a, l, ms, iters)
		}
	}

	st.Insts = insts
	if budget > 0 {
		st.IPC = float64(insts) / float64(budget)
	}
	if scInsts > 0 {
		st.SCMPKI = float64(scMisses) * 1000 / float64(scInsts)
	}

	// Update arbitration state.
	if onOoO {
		a.arb.IPCOoO = st.IPC
		a.arb.HaveOoOStats = true
		if c.cfg.Memoize {
			a.arb.SCMPKIOoO = c.memoizabilityMPKI(a, phase)
		}
	} else {
		a.arb.IPCInO = st.IPC
		a.arb.SCMPKIInO = st.SCMPKI
	}
	// The timeline's Eq 1 reads this interval's SC-MPKI, on either core.
	now := a.arb
	now.SCMPKIInO = st.SCMPKI
	st.DeltaSCMPKI = arbiter.DeltaSCMPKI(now)
	return st
}

// lookupSC consults the app's SC for a trace, once per trace execution
// (the SC's hit/miss totals count these lookups; the SC-MPKI the
// arbitrator reads is kept by the caller in batch form).
func (a *app) lookupSC(t *trace.Trace) (*trace.Schedule, bool) {
	if s, ok := a.sc.Lookup(t.ID); ok && s.Replayable() {
		return s, true
	}
	return nil, false
}

// replaySpeedup estimates the Eq 3 speedup credit of memoized execution.
func (c *Cluster) replaySpeedup(a *app) float64 {
	if a.arb.IPCOoO <= 0 {
		return 1
	}
	// The credit is the app's last in-order IPC over its OoO IPC, capped
	// at 1.
	sp := a.arb.IPCInO / a.arb.IPCOoO
	if sp > 1 {
		sp = 1
	}
	if sp <= 0 {
		sp = 0.9
	}
	return sp
}

// produce runs the memoization hardware while the app occupies the OoO:
// the recorder observes executions and inserts confident schedules into the
// producer SC. A measurement's schedule is built here, once, and only while
// the producer SC does not hold the trace yet.
func (c *Cluster) produce(a *app, l *program.Loop, ms *measurement, iters int) {
	if !c.cfg.Memoize || c.producerSC.Contains(l.Trace.ID) {
		return
	}
	sched := ms.schedule()
	// The recorder needs a few consecutive matching executions; model up to
	// `iters` observations (bounded — confidence saturates quickly).
	obs := iters
	if obs > 8 {
		obs = 8
	}
	for k := 0; k < obs; k++ {
		if c.recorder.Observe(l.Trace, sched, sched.RecordedCycles) {
			if err := c.producerSC.Insert(sched); err == nil {
				break
			}
		}
	}
}

// memoizabilityMPKI computes SC-MPKI_OoO: the extent of memoizability of
// the current phase as seen at the end of a memoize interval — traces the
// producer could not memoize miss in the SC.
func (c *Cluster) memoizabilityMPKI(a *app, phase *program.Phase) float64 {
	var missW, instW float64
	for _, l := range phase.Loops {
		w := l.Weight
		instW += w * float64(l.Trace.Len())
		if !c.producerSC.Contains(l.Trace.ID) {
			missW += w
		}
	}
	if instW == 0 {
		return 0
	}
	return missW * 1000 / instW
}

// modeLabels are the CPU-profile labels ("mode": ooo, ino or oino) measure
// puts on its simulation, built once so that labelling allocates nothing.
// A CPU profile (mirageexp -pprof, /debug/pprof/profile) then splits the
// simulator's time by measurement mode.
var modeLabels = [...]context.Context{
	modeInO:  pprof.WithLabels(context.Background(), pprof.Labels("mode", "ino")),
	modeOinO: pprof.WithLabels(context.Background(), pprof.Labels("mode", "oino")),
	modeOoO:  pprof.WithLabels(context.Background(), pprof.Labels("mode", "ooo")),
}

// measure returns (computing if needed) the steady per-iteration cost of a
// trace in the given mode, using genuine pipeline simulation.
func (c *Cluster) measure(a *app, l *program.Loop, m mode, sched *trace.Schedule) *measurement {
	key := costKey{l.Trace.ID, m}
	if ms, ok := a.costs[key]; ok {
		return ms
	}
	ws := a.walkersFor(l.Trace)
	ms := &measurement{}
	const iters = 10
	pprof.SetGoroutineLabels(modeLabels[m])
	switch m {
	case modeOoO:
		// Only the Mirage producer records schedules; every other OoO
		// measures the trace's cost alone.
		var r ooo.Measurement
		if c.cfg.Memoize {
			r, ms.rec = a.oooC.Record(l.Trace, l.Deps, ws, iters)
		} else {
			r = a.oooC.Measure(l.Trace, l.Deps, ws, iters)
		}
		ms.cyclesPerIter = r.CyclesPerIter
		ms.perIterEnergy = scaleBreakdown(energy.Compute(energy.KindOoO, r.Events), iters)
	case modeOinO:
		r := a.inoC.MeasureReplay(l.Trace, l.Deps, sched, ws, iters)
		// Trace selection is biased against unprofitable schedules
		// (Section 3.3.2): if replay measures slower than plain in-order
		// execution under current cache conditions, the core abandons the
		// schedule and fetches program order from the L1I instead.
		plain := a.inoC.MeasureTrace(l.Trace, l.Deps, ws, iters)
		if plain.CyclesPerIter < r.CyclesPerIter {
			a.sc.MarkUnmemoizable(l.Trace.ID)
			ms.cyclesPerIter = plain.CyclesPerIter
			ms.perIterEnergy = scaleBreakdown(energy.Compute(energy.KindInO, plain.Events), iters)
			break
		}
		ms.cyclesPerIter = r.CyclesPerIter
		ms.squashRate = r.SquashRate
		ms.perIterEnergy = scaleBreakdown(energy.Compute(energy.KindOinO, r.Events), iters)
	default:
		r := a.inoC.MeasureTrace(l.Trace, l.Deps, ws, iters)
		ms.cyclesPerIter = r.CyclesPerIter
		ms.perIterEnergy = scaleBreakdown(energy.Compute(energy.KindInO, r.Events), iters)
	}
	pprof.SetGoroutineLabels(context.Background())
	if aud := c.cfg.Audit; aud != nil {
		aud.Checkf(!math.IsNaN(ms.cyclesPerIter) && !math.IsInf(ms.cyclesPerIter, 0) && ms.cyclesPerIter >= 0,
			"cluster.measure", c.cfg.Seed,
			"trace %d mode %d: cycles/iter %v", l.Trace.ID, m, ms.cyclesPerIter)
		aud.Checkf(ms.perIterEnergy.Valid(), "energy.breakdown", c.cfg.Seed,
			"trace %d mode %d: non-finite or negative per-iteration energy component", l.Trace.ID, m)
	}
	// First measurement after a migration/new trace runs with cold caches;
	// keep it for a warmup window, then re-measure warm.
	ms.coldIters = 48
	a.costs[key] = ms
	if c.sink != nil {
		c.sink.Instant("measure:"+modeName(m), "measure", c.intervalStart, a.idx, map[string]any{
			"cycles_per_iter": ms.cyclesPerIter,
		})
	}
	return ms
}

func scaleBreakdown(b energy.Breakdown, iters int) energy.Breakdown {
	var out energy.Breakdown
	for i := range b {
		out[i] = b[i] / float64(iters)
	}
	return out
}

func (a *app) walkersFor(t *trace.Trace) []*mem.Walker {
	if ws, ok := a.walkers[t.ID]; ok {
		return ws
	}
	ws := make([]*mem.Walker, len(t.Streams))
	for i, s := range t.Streams {
		ws[i] = mem.NewWalker(s, a.rng.Fork(fmt.Sprintf("w%d-%d", t.ID, i)))
	}
	a.walkers[t.ID] = ws
	return ws
}

func loopWeights(p *program.Phase) []float64 {
	ws := make([]float64, len(p.Loops))
	for i := range p.Loops {
		ws[i] = p.Loops[i].Weight
	}
	return ws
}

// arbitrate applies the policy at an interval boundary and performs the
// resulting migration.
func (c *Cluster) arbitrate(interval int) {
	states := make([]arbiter.AppState, len(c.apps))
	for i, a := range c.apps {
		a.arb.OnOoO = a.onOoO
		a.arb.Util = 0
		if a.cycles > 0 {
			a.arb.Util = (float64(a.ledger.oooCycles) + a.memoCreditCyc) / float64(a.cycles)
		}
		states[i] = a.arb
	}
	// Fill up to NumOoO slots by repeatedly asking the policy, excluding
	// apps already granted a slot this boundary.
	var picks []int
	remaining := states
	for slot := 0; slot < c.cfg.NumOoO && len(remaining) > 0; slot++ {
		pick := c.cfg.Arbiter.Decide(remaining, interval)
		c.cfg.Audit.Checkf(arbiter.ValidDecision(remaining, pick), "arbiter.decision",
			c.cfg.Seed, "interval %d slot %d: %s returned %d, not an offered app index",
			interval, slot, c.cfg.Arbiter.Name(), pick)
		if pick == arbiter.None || pick < 0 || pick >= len(c.apps) {
			break
		}
		picks = append(picks, pick)
		filtered := remaining[:0:0]
		for _, s := range remaining {
			if s.Index != pick {
				filtered = append(filtered, s)
			}
		}
		remaining = filtered
	}

	if len(picks) == 0 {
		c.powerDowns++
		c.lastOwner = -1
	} else {
		c.grants += int64(len(picks))
		c.lastOwner = picks[0]
	}
	picked := make(map[int]bool, len(picks))
	for _, p := range picks {
		picked[p] = true
	}
	// Evict the seated apps that lost their slot, then seat the new picks.
	// An eviction changes only the evicted app plus additive penalties on
	// its peers, so the order of evictions does not matter. (A broadcast
	// also fills peer SCs, but Mirage seats a single app.)
	for i, a := range c.apps {
		if a.onOoO && !picked[i] {
			c.evictFromOoO(a)
		}
	}
	for _, p := range picks {
		if a := c.apps[p]; !a.onOoO {
			c.moveToOoO(a)
		}
	}
	if c.cfg.Audit != nil {
		c.auditOccupancy(interval)
	}
}

// auditOccupancy checks the post-arbitration seating invariant: at most
// NumOoO seated apps — more double-bills OoO cycles and Eq 3 credit.
func (c *Cluster) auditOccupancy(interval int) {
	seated := 0
	for _, a := range c.apps {
		if a.onOoO {
			seated++
		}
	}
	c.cfg.Audit.Checkf(seated <= c.cfg.NumOoO, "cluster.ooo_occupancy", c.cfg.Seed,
		"interval %d: %d OoO occupants, capacity %d", interval, seated, c.cfg.NumOoO)
}

// evictFromOoO returns an app to its InO core, shipping the producer SC
// contents with it over the bus.
func (c *Cluster) evictFromOoO(a *app) {
	a.onOoO = false
	var scCost int64
	if c.cfg.Memoize {
		moved := a.sc.CopyFrom(c.producerSC)
		if moved > 0 {
			scCost = c.cfg.SCTransferCycles
		}
		if c.cfg.BroadcastSC && moved > 0 {
			// Homogeneous threads (Section 6): every consumer receives the
			// schedules over the unidirectional broadcast path. Receivers
			// pay the transfer latency; the departing app already does.
			for _, peer := range c.apps {
				if peer == a {
					continue
				}
				if peer.sc.CopyFrom(c.producerSC) > 0 {
					peer.penalty += c.cfg.SCTransferCycles
					peer.ledger.scXferCycles += c.cfg.SCTransferCycles
					// Stale per-trace measurements: new schedules available.
					peer.costs = make(map[costKey]*measurement)
				}
			}
		}
	}
	a.penalty += c.cfg.DrainCycles + scCost
	a.ledger.evictions++
	a.ledger.scXferCycles += scCost
	a.ledger.l1Refills += c.estimateL1Refill(a)
	c.chargeBusContention(a, c.cfg.DrainCycles+scCost)
	a.migrate()
}

// chargeBusContention delays every co-running application by a share of a
// bus transfer's occupancy (the bus serializes all off-core traffic).
func (c *Cluster) chargeBusContention(mover *app, transfer int64) {
	delay := int64(float64(transfer) * c.cfg.BusContentionShare)
	if delay <= 0 {
		return
	}
	for _, peer := range c.apps {
		if peer != mover {
			peer.penalty += delay
		}
	}
}

// moveToOoO moves an app onto the producer core.
func (c *Cluster) moveToOoO(a *app) {
	a.onOoO = true
	a.ledger.migrations++
	a.penalty += c.cfg.DrainCycles
	a.ledger.l1Refills += c.estimateL1Refill(a)
	c.chargeBusContention(a, c.cfg.DrainCycles)
	if c.cfg.Memoize {
		// The producer starts fresh for the new application.
		c.producerSC.Flush()
		c.recorder.Reset()
	}
	a.migrate()
}

// migrate applies the core-switch state effects: cold L1s, invalidated
// steady-state measurements.
func (a *app) migrate() {
	a.mem.FlushL1s()
	a.costs = make(map[costKey]*measurement)
}

// estimateL1Refill estimates the cold-start refill cost the app will absorb
// (reported for Figure 15; the real cost is paid implicitly through cold
// cache re-measurement).
func (c *Cluster) estimateL1Refill(a *app) int64 {
	occ := int64(a.mem.L1Occupancy())
	return occ * mem.L2Latency / 4 // overlapping refills
}

// finalize computes aggregate energy, per-app results and the run totals,
// which sum the live ledgers: they keep counting after an app completes.
func (c *Cluster) finalize(res *Result) {
	var total float64
	var seated int64 // app-intervals on an OoO core
	for _, a := range c.apps {
		if a.completedAt > res.WallCycles {
			res.WallCycles = a.completedAt
		}
		if a.completedAt == 0 && a.cycles > res.WallCycles {
			res.WallCycles = a.cycles
		}
		live := a.ledger
		res.Migrations += live.migrations + live.switches
		res.SCTransferCyclesTotal += live.scXferCycles
		res.BusTransferCycles += live.scXferCycles + int64(live.migrations+live.evictions)*c.cfg.DrainCycles
		seated += live.oooCycles / c.cfg.IntervalCycles

		// Energy, IPC and the migration counts are reported over the app's
		// completion window: TargetInsts instructions, however long they
		// took. OoOCycles keeps the full-run value: OoO time *share* is a
		// property of the whole run (Figure 12).
		l := a.final()
		ar := AppResult{
			Name:             a.bench.Name,
			Insts:            a.instsRetired,
			Cycles:           a.cycles,
			OoOCycles:        a.ledger.oooCycles,
			MemoizedInsts:    l.memoizedInsts,
			Migrations:       l.migrations,
			SCTransferCycles: l.scXferCycles,
			L1RefillCycles:   l.l1Refills,
			EnergyPJ:         l.energy,
			Timeline:         a.timeline[c.warm:],
		}
		if a.completedAt > 0 {
			ar.Insts = c.cfg.TargetInsts
			ar.Cycles = a.completedAt
			ar.IPC = float64(c.cfg.TargetInsts) / float64(a.completedAt)
		} else if a.cycles > 0 {
			ar.IPC = float64(a.instsRetired) / float64(a.cycles)
		}
		res.Apps = append(res.Apps, ar)
		total += ar.EnergyPJ.Total()
		// Idle InO leakage while the app occupied the OoO (its home core
		// waits powered on).
		if c.cfg.HasOoO {
			total += energy.IdleLeakagePJ(energy.KindInO, uint64(l.oooCycles)) * 0.3
		}
	}
	// The OoO's idle time is power-gated: zero cost (Section 4.2). Each
	// seated interval's OoO time divides among the OoO cores.
	res.TotalEnergyPJ = total
	res.OoOActiveCycles = seated * (c.cfg.IntervalCycles / int64(c.cfg.NumOoO))
	if c.cfg.Audit != nil {
		c.auditFinalize(res)
	}
	c.finalizeTelemetry(res)
}

// auditFinalize checks end-of-run accounting closure: every per-app
// breakdown well-formed, the cluster total equal to the sum of per-app
// component totals plus idle leakage, and OoO active time within the run
// window. A drift here means energy was dropped or double-counted somewhere
// between measure() and the report — exactly the class of bug Figure 9b
// would silently absorb.
func (c *Cluster) auditFinalize(res *Result) {
	aud := c.cfg.Audit
	var want float64
	for i, ar := range res.Apps {
		aud.Checkf(ar.EnergyPJ.Valid(), "energy.breakdown", ar.Name,
			"non-finite or negative component in final breakdown")
		want += ar.EnergyPJ.Total()
		if c.cfg.HasOoO {
			want += energy.IdleLeakagePJ(energy.KindInO, uint64(c.apps[i].final().oooCycles)) * 0.3
		}
	}
	diff := res.TotalEnergyPJ - want
	if diff < 0 {
		diff = -diff
	}
	tol := 1e-9 * want
	if tol < 1e-9 {
		tol = 1e-9
	}
	aud.Checkf(diff <= tol, "energy.closure", c.cfg.Seed,
		"TotalEnergyPJ %v != per-app component sum %v (diff %v)", res.TotalEnergyPJ, want, diff)
	if !c.cfg.AllOoO {
		aud.Checkf(res.OoOActiveCycles >= 0 && res.OoOActiveCycles <= res.RunCycles,
			"cluster.ooo_occupancy", c.cfg.Seed,
			"OoO active %d cycles outside run window %d", res.OoOActiveCycles, res.RunCycles)
	}
}
