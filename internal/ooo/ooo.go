// Package ooo models the schedule-producing out-of-order core: a 3-wide,
// 12-stage, ROB-128 dataflow machine (Table 2). Beyond executing traces at
// full OoO performance, it implements the memoization hardware of Section
// 3.3.1: per-trace repeatability tables that compare execution metrics
// across iterations and, once a schedule repeats with high confidence,
// record it for the Schedule Cache.
package ooo

import (
	"slices"

	"repro/internal/energy"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Measurement summarizes one measured trace execution on the OoO.
type Measurement struct {
	// CyclesPerIter is the steady-state marginal cycles per trace iteration
	// (iterations overlap inside the ROB window).
	CyclesPerIter float64
	// IPC is instructions per cycle at steady state.
	IPC float64
	// Events are the energy-model activity counts for the simulated span.
	Events energy.Events
}

// Result is a Measurement with its recorded schedule built.
type Result struct {
	Measurement
	// Schedule is the issue schedule extracted from a steady block.
	Schedule *trace.Schedule
}

// Recording is what one recording OoO measurement (Record) takes of a
// trace's issue schedule: the issue order of a ScheduleSpan-iteration
// block, how many of its instructions issued out of program order, and the
// steady cycles per iteration. It is cheap to keep. The replay metadata (live register
// versions and memory order) is derived only by Schedule, as the paper's
// OoO writes a schedule out only once its repeatability tables decide to
// memoize the trace.
type Recording struct {
	t         *trace.Trace
	order     []uint16
	reordered int
	cycles    int
}

// Schedule builds the recorded schedule with its replay metadata. Each
// call builds and returns a new schedule, which shares the recording's
// issue order; callers that judge one recording repeatedly keep the first.
func (r Recording) Schedule() *trace.Schedule {
	t, order := r.t, r.order
	s := &trace.Schedule{
		TraceID:        t.ID,
		Span:           len(order) / len(t.Insts),
		Order:          order,
		RecordedCycles: r.cycles,
		ReorderedInsts: r.reordered,
		MaxVersions:    pipeline.MaxLiveVersions(t, order),
	}
	// MemOrder: schedule positions of the block's memory ops listed in
	// program order — the metadata block the OinO LSQ uses to rebuild
	// original sequence.
	pos := make([]uint16, len(order))
	for k, bp := range order {
		pos[bp] = uint16(k)
	}
	for bp := 0; bp < len(order); bp++ {
		if t.Insts[bp%len(t.Insts)].Op.IsMem() {
			s.MemOrder = append(s.MemOrder, pos[bp])
		}
	}
	return s
}

// Core is one OoO core instance with its private memory hierarchy.
type Core struct {
	Mem *mem.Hierarchy
	rng *xrand.Rand
	// eng is this core's private pipeline engine: its measurement scratch
	// is reused across the Measure calls of one cluster run, and cores
	// are built per worker, so ownership composes with -parallel. The
	// result memo behind it is the process's, shared with every other core.
	eng *pipeline.Engine

	// The request's callbacks, bound once by New so that a measurement
	// allocates none, and the inputs of the measurement in progress they
	// read: its load latencies, fetch gates and mispredict rate.
	loadLatency    func(int) int
	mispredicts    func(int) bool
	fetchGate      func(int) int
	lats, gates    []int
	mispredictRate float64

	aud      *invariant.Auditor
	audLabel string
}

// New builds an OoO core. The rng drives per-iteration stochastic events
// (branch mispredictions, schedule variation draws).
func New(h *mem.Hierarchy, rng *xrand.Rand) *Core {
	c := &Core{Mem: h, rng: rng, eng: pipeline.NewEngine()}
	c.loadLatency = func(k int) int { return c.lats[k] }
	c.mispredicts = func(int) bool { return c.rng.Bool(c.mispredictRate) }
	c.fetchGate = func(it int) int { return c.gates[it] }
	return c
}

// PublishTelemetry adds this core's measurement run totals to the
// registry's counters under prefix (e.g. "core0.ooo"); see
// pipeline.Engine.PublishTelemetry. Call it once, after the run's last
// measurement and on the goroutine that made it. A nil registry is a no-op.
func (c *Core) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	c.eng.PublishTelemetry(reg, prefix)
}

// AttachAudit threads the invariant auditor (DESIGN.md §11) into every
// pipeline measurement this core makes; label locates violations (e.g.
// "core0.ooo"). Nil detaches — the default.
func (c *Core) AttachAudit(a *invariant.Auditor, label string) {
	c.aud = a
	c.audLabel = label
}

// ScheduleSpan is how many consecutive iterations one memoized schedule
// covers. The OoO overlaps iterations inside its ROB; recording the issue
// order across a four-iteration block preserves that overlap so in-order
// replay can reproduce it (the trace remains one atomic replay unit).
const ScheduleSpan = 4

// Measure simulates iters consecutive iterations of t on the OoO and
// returns its steady-state performance and energy events: the cost of the
// trace, without the probe. walkers supply the trace's memory address
// streams (one per stream spec). Every OoO that does not record schedules
// (Homo-OoO, a traditional cluster's cores) and every warm-up measurement
// calls it; on a memo hit it allocates nothing.
func (c *Core) Measure(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int) Measurement {
	m, _ := c.measure(t, deps, walkers, iters, false)
	return m
}

// Record is Measure plus the recording of the issue schedule, for the
// callers that build schedules: the Mirage producer, which memoizes them,
// and experiments that replay them. It makes the same draws as Measure and
// returns the same Measurement.
func (c *Core) Record(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int) (Measurement, Recording) {
	return c.measure(t, deps, walkers, iters, true)
}

// measure is Measure, and Record when record is set.
func (c *Core) measure(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int, record bool) (Measurement, Recording) {
	res, nLoads, nStores := c.simulate(t, deps, walkers, iters, record)
	cpi := res.SteadyCyclesPerIter()
	m := Measurement{CyclesPerIter: cpi, Events: c.countEvents(t, &res, iters, nLoads, nStores)}
	if cpi > 0 {
		m.IPC = float64(len(t.Insts)) / cpi
	}
	var rec Recording
	if record {
		// The Result's IssueOrder is the engine's buffer, refilled by its
		// next Run; the recording outlives that, so it keeps a copy.
		rec = Recording{t: t, order: slices.Clone(res.IssueOrder), reordered: res.Reordered, cycles: int(cpi + 0.5)}
	}
	return m, rec
}

// simulate walks the trace's memory streams and runs the pipeline engine,
// asking for the probe when probe is set, and returns its result with the
// dynamic load and store counts.
func (c *Core) simulate(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int, probe bool) (res pipeline.Result, nLoads, nStores int) {
	c.lats, nLoads, nStores = c.Mem.LoadLatencies(t, walkers, iters)
	c.gates = c.Mem.FetchGates(t, iters)
	c.mispredictRate = t.MispredictRate

	req := pipeline.Request{
		Trace:             t,
		Deps:              deps,
		Iterations:        iters,
		Policy:            pipeline.Dataflow,
		Width:             isa.IssueWidth,
		Window:            isa.ROBSize,
		ProbeSpan:         ScheduleSpan,
		NoProbe:           !probe,
		MispredictPenalty: isa.OoOPipelineDepth,
		LoadLatency:       c.loadLatency,
		Mispredicts:       c.mispredicts,
		FetchGate:         c.fetchGate,
		Audit:             c.aud,
		AuditLabel:        c.audLabel,
	}
	return c.eng.Run(req), nLoads, nStores
}

// MeasureTrace is Record with the schedule built, for callers that replay
// the schedule of every trace they measure.
func (c *Core) MeasureTrace(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int) Result {
	m, rec := c.Record(t, deps, walkers, iters)
	return Result{Measurement: m, Schedule: rec.Schedule()}
}

func (c *Core) countEvents(t *trace.Trace, res *pipeline.Result, iters, nLoads, nStores int) energy.Events {
	n := uint64(len(t.Insts)) * uint64(iters)
	ev := energy.ClassEvents(t, iters)
	ev.Cycles = uint64(res.Cycles)
	ev.Fetches = n
	ev.Decodes = n
	ev.RenameOps = n
	ev.ROBWrites = n
	ev.SchedOps = n // one wakeup/select event per issued instruction
	ev.PRFReads = 2 * n
	ev.PRFWrites = n * 3 / 4
	ev.CDBBcasts = n * 3 / 4
	ev.LQOps = uint64(nLoads)
	ev.SQOps = uint64(nStores)
	ev.L1DAccess = uint64(nLoads + nStores)
	ev.L1IAccess = n / 2 // fetch groups amortize I$ reads across width
	return ev
}

// Recorder is the memoization hardware of Section 3.3.1 (the ~0.3 kB of
// tables): it tracks, per trace, whether consecutive OoO executions produce
// matching schedules, and promotes a trace to "memoize" once it has repeated
// with enough confidence. It is deliberately conservative — the SC holds
// schedules across millions of instructions, so only high-confidence traces
// are stored (and traces that would misspeculate on replay are rejected).
type Recorder struct {
	// ConfidenceThreshold is how many consecutive matching executions are
	// required before a schedule is memoized.
	ConfidenceThreshold int
	// MaxAliasRate and MaxMispredictRate reject traces whose replay would
	// squash too often — OinO traces execute atomically, so both memory
	// aliases and branch mispredictions abort the whole trace (Section
	// 3.3.2: selection is heavily biased against misspeculating traces,
	// keeping the penalty near 0.3% of execution).
	MaxAliasRate      float64
	MaxMispredictRate float64
	// TableEntries bounds the hardware table size.
	TableEntries int

	entries map[trace.ID]*recEntry
	order   []trace.ID // FIFO for table eviction
	rng     *xrand.Rand
}

type recEntry struct {
	lastCycles   int
	confidence   int
	unmemoizable bool
}

// NewRecorder returns a Recorder with the paper's conservative defaults.
func NewRecorder(rng *xrand.Rand) *Recorder {
	return &Recorder{
		ConfidenceThreshold: 3,
		MaxAliasRate:        0.05,
		MaxMispredictRate:   0.15,
		TableEntries:        64,
		entries:             make(map[trace.ID]*recEntry),
		rng:                 rng,
	}
}

// Observe records one OoO execution of t with the measured per-iteration
// cycles. It returns true when the trace has just crossed the confidence
// threshold and its schedule should be written to the Schedule Cache.
//
// Two executions "match" when their metrics agree (we use recorded cycle
// counts, the paper's cheap proxy for cycle-by-cycle comparison) and the
// trace's inherent schedule stability draw succeeds.
func (r *Recorder) Observe(t *trace.Trace, sched *trace.Schedule, perIterCycles int) bool {
	e := r.entries[t.ID]
	if e == nil {
		if len(r.order) >= r.TableEntries {
			// FIFO-evict the oldest tracked trace.
			old := r.order[0]
			r.order = r.order[1:]
			delete(r.entries, old)
		}
		e = &recEntry{lastCycles: perIterCycles}
		r.entries[t.ID] = e
		r.order = append(r.order, t.ID)
		return false
	}
	if e.unmemoizable {
		return false
	}
	if !sched.Replayable() || t.AliasRate > r.MaxAliasRate || t.MispredictRate > r.MaxMispredictRate {
		e.unmemoizable = true
		return false
	}
	match := metricsMatch(e.lastCycles, perIterCycles) && r.rng.Bool(t.Stability)
	e.lastCycles = perIterCycles
	if !match {
		e.confidence = 0
		return false
	}
	e.confidence++
	return e.confidence == r.ConfidenceThreshold
}

// Unmemoizable reports whether the recorder has given up on a trace.
func (r *Recorder) Unmemoizable(id trace.ID) bool {
	e := r.entries[id]
	return e != nil && e.unmemoizable
}

// Reset clears the tables (the producer switches to a new application).
func (r *Recorder) Reset() {
	r.entries = make(map[trace.ID]*recEntry)
	r.order = r.order[:0]
}

// metricsMatch applies the tolerance used to declare two executions "the
// same schedule": within 5% or 2 cycles of each other.
func metricsMatch(a, b int) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d <= 2 {
		return true
	}
	den := a
	if b > den {
		den = b
	}
	return den > 0 && float64(d)/float64(den) <= 0.05
}
