// Package ino models the consumer core: a 3-wide, 8-stage, stall-on-use
// in-order pipeline with the same functional units as the OoO (Table 2),
// plus the OinO mode of Section 3.3.2 that replays memoized OoO schedules:
// issue follows the recorded order, registers resolve through a 128-entry
// versioned PRF (at most 4 versions per architectural register), memory
// operations pass through a 32-entry replay LSQ that reconstructs program
// order from the schedule's metadata block, and traces execute atomically —
// a detected alias or misspeculation squashes the whole trace and re-runs
// it in original program order.
package ino

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

// Result summarizes one measured trace execution on the InO/OinO core.
type Result struct {
	// CyclesPerIter is steady-state marginal cycles per trace iteration.
	CyclesPerIter float64
	// IPC is instructions per cycle at steady state.
	IPC float64
	// SquashRate is the fraction of replay iterations that squashed
	// (OinO mode only).
	SquashRate float64
	// Events are energy-model activity counts for the simulated span.
	Events energy.Events
}

// Core is one InO core instance with its private memory hierarchy.
type Core struct {
	Mem *mem.Hierarchy
	rng *xrand.Rand
	// eng is this core's private pipeline engine: its measurement scratch
	// is reused across measure/replay calls, and cores are built per
	// worker, so ownership composes with -parallel. The result memo behind
	// it is the process's, shared with every other core.
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

// New builds an InO core.
func New(h *mem.Hierarchy, rng *xrand.Rand) *Core {
	c := &Core{Mem: h, rng: rng, eng: pipeline.NewEngine()}
	c.loadLatency = func(k int) int { return c.lats[k] }
	c.mispredicts = func(int) bool { return c.rng.Bool(c.mispredictRate) }
	c.fetchGate = func(it int) int { return c.gates[it] }
	return c
}

// PublishTelemetry adds this core's measurement run totals to the
// registry's counters under prefix (e.g. "core0.ino"); see
// pipeline.Engine.PublishTelemetry. Call it once, after the run's last
// measurement and on the goroutine that made it. A nil registry is a no-op.
func (c *Core) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	c.eng.PublishTelemetry(reg, prefix)
}

// AttachAudit threads the invariant auditor (DESIGN.md §11) into every
// pipeline measurement this core makes — plain in-order and OinO replay
// alike; label locates violations (e.g. "core0.ino"). Nil detaches.
func (c *Core) AttachAudit(a *invariant.Auditor, label string) {
	c.aud = a
	c.audLabel = label
}

// SquashRefillCycles is the pipeline flush-and-refill cost when an OinO
// trace misspeculates and restarts in program order.
const SquashRefillCycles = isa.InOPipelineDepth

// CommitOverheadCycles is charged once per replayed iteration: OinO traces
// execute atomically, so stores drain from the replay LSQ and commit in
// order at trace boundaries before the next trace block proceeds.
const CommitOverheadCycles = 1.0

// MeasureTrace simulates iters iterations of t in plain in-order mode. On
// a memo hit it allocates nothing.
//
// Neither measurement asks the engine for the probe: no caller reads an
// in-order issue order.
func (c *Core) MeasureTrace(t *trace.Trace, deps *trace.DepGraph, walkers []*mem.Walker, iters int) Result {
	var nLoads, nStores int
	c.lats, nLoads, nStores = c.Mem.LoadLatencies(t, walkers, iters)
	c.gates = c.Mem.FetchGates(t, iters)
	c.mispredictRate = t.MispredictRate
	req := pipeline.Request{
		Trace:             t,
		Deps:              deps,
		Iterations:        iters,
		Policy:            pipeline.ProgramOrder,
		NoProbe:           true,
		Width:             isa.IssueWidth,
		MispredictPenalty: isa.InOPipelineDepth,
		LoadLatency:       c.loadLatency,
		Mispredicts:       c.mispredicts,
		FetchGate:         c.fetchGate,
		Audit:             c.aud,
		AuditLabel:        c.audLabel,
	}
	res := c.eng.Run(req)
	cpi := res.SteadyCyclesPerIter()
	r := Result{
		CyclesPerIter: cpi,
		Events:        c.countEvents(t, &res, iters, nLoads, nStores, false),
	}
	if cpi > 0 {
		r.IPC = float64(len(t.Insts)) / cpi
	}
	return r
}

// MeasureReplay simulates iters iterations of t in OinO mode, replaying the
// memoized schedule. Misspeculating iterations (memory aliases the recorded
// order reordered incorrectly, per t.AliasRate) squash atomically: the work
// is discarded, the pipeline refills, and the iteration re-executes in
// program order. The returned CyclesPerIter folds that penalty in.
func (c *Core) MeasureReplay(t *trace.Trace, deps *trace.DepGraph, sched *trace.Schedule, walkers []*mem.Walker, iters int) Result {
	if !sched.Replayable() {
		// Hardware could not replay this schedule; fall back to plain InO.
		return c.MeasureTrace(t, deps, walkers, iters)
	}
	span := sched.Span
	if span <= 0 {
		span = 1
	}
	if rem := iters % span; rem != 0 {
		iters += span - rem
	}
	// No fetch gates: replayed trace blocks come from the on-core SC.
	var nLoads, nStores int
	c.lats, nLoads, nStores = c.Mem.LoadLatencies(t, walkers, iters)
	c.mispredictRate = t.MispredictRate
	req := pipeline.Request{
		Trace:             t,
		Deps:              deps,
		Iterations:        iters,
		Policy:            pipeline.RecordedOrder,
		Order:             sched.Order,
		ProbeSpan:         span,
		NoProbe:           true,
		Width:             isa.IssueWidth,
		MispredictPenalty: isa.InOPipelineDepth,
		LoadLatency:       c.loadLatency,
		// A mispredicted trace-terminating branch redirects the front end
		// like on any in-order core; only memory aliases abort the atomic
		// trace (handled below).
		Mispredicts: c.mispredicts,
		Audit:       c.aud,
		AuditLabel:  c.audLabel,
	}
	res := c.eng.Run(req)
	replayCPI := res.SteadyCyclesPerIter() + CommitOverheadCycles

	// Alias-squashing iterations pay: the wasted partial replay (half an
	// iteration on average), the refill, and a full program-order re-run.
	squashP := t.AliasRate
	if squashP > 1 {
		squashP = 1
	}
	var inoCPI float64
	if squashP > 0 {
		inoCPI = c.MeasureTrace(t, deps, walkers, iters).CyclesPerIter
	}
	cpi := (1-squashP)*replayCPI + squashP*(replayCPI/2+float64(SquashRefillCycles)+inoCPI)

	ev := c.countEvents(t, &res, iters, nLoads, nStores, true)
	ev.Squashes = uint64(float64(iters)*squashP + 0.5)
	r := Result{
		CyclesPerIter: cpi,
		SquashRate:    squashP,
		Events:        ev,
	}
	if cpi > 0 {
		r.IPC = float64(len(t.Insts)) / cpi
	}
	return r
}

func (c *Core) countEvents(t *trace.Trace, res *pipeline.Result, iters, nLoads, nStores int, oino bool) energy.Events {
	n := uint64(len(t.Insts)) * uint64(iters)
	ev := energy.ClassEvents(t, iters)
	ev.Cycles = uint64(res.Cycles)
	ev.Decodes = n
	ev.PRFReads = 2 * n
	ev.PRFWrites = n * 3 / 4
	ev.LQOps = uint64(nLoads)
	ev.SQOps = uint64(nStores)
	ev.L1DAccess = uint64(nLoads + nStores)
	if oino {
		// OinO fetches trace blocks from the small SC instead of the L1I,
		// cutting I-cache and branch-prediction activity (Section 5.2).
		ev.SCFetches = n
		ev.L1IAccess = n / 8
		ev.BPredLookups /= 4
	} else {
		ev.Fetches = n
		ev.L1IAccess = n / 2
	}
	return ev
}
