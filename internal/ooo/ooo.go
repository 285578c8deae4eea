// Package ooo models the schedule-producing out-of-order core: a 3-wide,
// 12-stage, ROB-128 dataflow machine (Table 2). Beyond executing traces at
// full OoO performance, it implements the memoization hardware of Section
// 3.3.1: per-trace repeatability tables that compare execution metrics
// across iterations and, once a schedule repeats with high confidence,
// record it for the Schedule Cache.
package ooo

import (
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
	// Recording is the issue order of a steady block; its Schedule method
	// builds the schedule the memoization hardware would store.
	Recording Recording
	// Events are the energy-model activity counts for the simulated span.
	Events energy.Events
}

// Result is a Measurement with its schedule built.
type Result struct {
	Measurement
	// Schedule is the issue schedule extracted from a steady block.
	Schedule *trace.Schedule
}

// Recording is what one OoO measurement records of a trace's issue
// schedule: the issue order of a ScheduleSpan-iteration block, how many of
// its instructions issued out of program order, and the steady cycles per
// iteration. It is cheap to keep. The replay metadata (live register
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

	aud      *invariant.Auditor
	audLabel string
}

// New builds an OoO core. The rng drives per-iteration stochastic events
// (branch mispredictions, schedule variation draws).
func New(h *mem.Hierarchy, rng *xrand.Rand) *Core {
	return &Core{Mem: h, rng: rng, eng: pipeline.NewEngine()}
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
// order across a two-iteration block preserves that overlap so in-order
// replay can reproduce it (the trace remains one atomic replay unit).
const ScheduleSpan = 4

// Measure simulates iters consecutive iterations of t on the OoO and
// returns steady-state performance plus the recording of its issue
// schedule. walkers supply the trace's memory address streams (one per
// stream spec).
func (c *Core) Measure(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int) Measurement {
	res, nLoads, nStores := c.simulate(t, deps, walkers, iters)
	cpi := res.SteadyCyclesPerIter()
	m := Measurement{
		CyclesPerIter: cpi,
		// The Result's IssueOrder is its own allocation, so the recording
		// keeps it without a copy.
		Recording: Recording{t: t, order: res.IssueOrder, reordered: res.Reordered, cycles: int(cpi + 0.5)},
		Events:    c.countEvents(t, &res, iters, nLoads, nStores),
	}
	if cpi > 0 {
		m.IPC = float64(len(t.Insts)) / cpi
	}
	return m
}

// simulate walks the trace's memory streams and runs the pipeline engine,
// returning its result with the dynamic load and store counts.
func (c *Core) simulate(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int) (res pipeline.Result, nLoads, nStores int) {
	loadLats, nLoads, nStores := c.Mem.LoadLatencies(t, walkers, iters)
	fetchGates := c.Mem.FetchGates(t, iters)

	req := pipeline.Request{
		Trace:             t,
		Deps:              deps,
		Iterations:        iters,
		Policy:            pipeline.Dataflow,
		Width:             isa.IssueWidth,
		Window:            isa.ROBSize,
		ProbeSpan:         ScheduleSpan,
		MispredictPenalty: isa.OoOPipelineDepth,
		LoadLatency:       func(k int) int { return loadLats[k] },
		Mispredicts:       func(int) bool { return c.rng.Bool(t.MispredictRate) },
		FetchGate:         func(it int) int { return fetchGates[it] },
		Audit:             c.aud,
		AuditLabel:        c.audLabel,
	}
	return c.eng.Run(req), nLoads, nStores
}

// MeasureTrace is Measure with the schedule built, for callers that replay
// the schedule of every trace they measure.
func (c *Core) MeasureTrace(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int) Result {
	m := c.Measure(t, deps, walkers, iters)
	return Result{Measurement: m, Schedule: m.Recording.Schedule()}
}

func (c *Core) countEvents(t *trace.Trace, res *pipeline.Result, iters, nLoads, nStores int) energy.Events {
	n := uint64(len(t.Insts)) * uint64(iters)
	var ev energy.Events
	ev.Cycles = uint64(res.Cycles)
	for _, in := range t.Insts {
		var cnt *uint64
		switch in.Op {
		case isa.IntALU, isa.Branch:
			cnt = &ev.IntOps
		case isa.IntMul, isa.IntDiv:
			cnt = &ev.MulDivOps
		case isa.FPAdd, isa.FPMul, isa.FPDiv:
			cnt = &ev.FPOps
		}
		if cnt != nil {
			*cnt += uint64(iters)
		}
		if in.Op == isa.Branch {
			ev.BPredLookups += uint64(iters)
		}
	}
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
