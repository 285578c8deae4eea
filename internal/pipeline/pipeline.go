// Package pipeline contains the cycle-level issue simulator shared by the
// three core models. One engine, three issue policies:
//
//   - Dataflow: the OoO backend — instructions issue oldest-ready-first out
//     of a ROB-limited window (wakeup/select), overlapping loop iterations.
//   - ProgramOrder: the InO backend — strict in-order, stall-on-use issue.
//   - RecordedOrder: the OinO mode — in-order stall-on-use issue, but in the
//     order a memoized OoO schedule dictates rather than program order.
//
// All three respect the same functional-unit pools and superscalar width
// (Section 4.2: the InO has the same width and FUs as the OoO so schedules
// transfer directly), the same register dependences, and per-dynamic-load
// latencies supplied by the memory hierarchy.
//
// The implementation (engine.go, events.go) is event-driven: wakeup lists
// propagate readiness, a calendar queue holds future wakeups, and the main
// loops jump over cycles in which nothing can happen. Results are
// bit-identical to the original cycle-by-cycle engine, whose frozen copy
// serves as the test oracle (reference_test.go).
package pipeline

import (
	"slices"
	"sync"

	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Policy selects the issue order rule.
type Policy uint8

const (
	// Dataflow is OoO wakeup/select issue inside a ROB window.
	Dataflow Policy = iota
	// ProgramOrder is in-order, stall-on-use issue.
	ProgramOrder
	// RecordedOrder is in-order stall-on-use issue following a memoized
	// schedule's order.
	RecordedOrder
)

// Request describes one trace-execution simulation: how many back-to-back
// iterations of the trace to run and under which policy.
type Request struct {
	Trace *trace.Trace
	Deps  *trace.DepGraph
	// Iterations is the number of consecutive trace iterations to simulate.
	Iterations int
	Policy     Policy
	// Order is the issue order for RecordedOrder, covering ProbeSpan
	// consecutive iterations (len(Order) == ProbeSpan * len(Trace.Insts)).
	Order []uint16
	// ProbeSpan is how many consecutive iterations one schedule unit
	// covers. Recording across iterations preserves the OoO's
	// cross-iteration overlap, which in-order replay needs (see
	// ooo.ScheduleSpan). Defaults to 1.
	ProbeSpan int

	Width  int
	Window int // ROB capacity; used by Dataflow only
	// MispredictPenalty is the front-end refill depth charged after a
	// mispredicted trace-terminating branch.
	MispredictPenalty int

	// The three callbacks are called before simulating, once per input in
	// index order; the simulation reads only their results.
	//
	// LoadLatency returns the latency of the k-th dynamic load overall
	// (caller resolves it against the cache hierarchy). If nil, all loads
	// take the L1-hit latency.
	LoadLatency func(loadSeq int) int
	// Mispredicts reports whether the terminating branch of iteration i
	// mispredicts, for i in 0..Iterations-2. The k-th terminating branch to
	// resolve takes the k-th outcome, so a callback that draws from an rng
	// sees the same calls in the same order as if it were consulted at
	// each resolution; on the workload suite's loops the k-th branch to
	// resolve is iteration k's (DESIGN.md §9). If nil, no branch ever
	// mispredicts.
	Mispredicts func(iter int) bool
	// FetchGate returns extra cycles gating the start of iteration i
	// (instruction-cache or Schedule-Cache miss stalls). May be nil.
	FetchGate func(iter int) int

	// Audit, when non-nil, cross-checks the final schedule against the
	// machine invariants after the run (audit.go, DESIGN.md §11) and makes
	// an owned Engine simulate even an exact repeat, checking the memoized
	// result against the fresh one; the default nil costs one comparison.
	// AuditLabel locates violations (core label and benchmark).
	Audit      *invariant.Auditor
	AuditLabel string
}

// Result is the outcome of a simulation.
type Result struct {
	// Cycles is the cycle at which the last instruction completed.
	Cycles int
	// IterEnd[i] is the completion cycle of iteration i's last instruction.
	IterEnd []int
	// IssueOrder is the issue order observed for the probe block (ProbeSpan
	// iterations out of the middle of the run). Entries index into the
	// block: value it*len(Trace.Insts)+j is instruction j of the block's
	// it-th iteration.
	IssueOrder []uint16
	// Reordered counts probe-block instructions issued before an older
	// instruction of the same block.
	Reordered int
	// Issued is the total number of instructions issued.
	Issued int
	// FUBusy[f] accumulates issue events per functional-unit pool (an
	// energy proxy).
	FUBusy [isa.NumFUs]uint64
	// LoadStallCycles estimates cycles the issue stage spent unable to
	// issue anything (an energy/utilization proxy).
	LoadStallCycles int
	// StallDataCycles, StallFUCycles and StallFetchCycles break issue
	// stalls down by cause — operand not ready, every free functional unit
	// of the needed class busy, and front end gated (I-fetch miss or branch
	// redirect). Data and FU stalls partition LoadStallCycles' events;
	// fetch stalls are counted separately in cycles skipped at the gate.
	StallDataCycles  int
	StallFUCycles    int
	StallFetchCycles int
}

// SteadyCyclesPerIter returns the marginal cycles per iteration measured
// over the back half of the run, where caches and iteration overlap have
// reached steady state.
func (r *Result) SteadyCyclesPerIter() float64 {
	n := len(r.IterEnd)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return float64(r.IterEnd[0])
	}
	half := n / 2
	span := r.IterEnd[n-1] - r.IterEnd[half-1]
	iters := n - half
	if span <= 0 || iters <= 0 {
		return float64(r.IterEnd[n-1]) / float64(n)
	}
	return float64(span) / float64(iters)
}

var livePool = sync.Pool{New: func() any { return new([]int) }}

// MaxLiveVersions computes, for a schedule order over a block of one or
// more unrolled trace iterations, the maximum number of simultaneously-live
// renamed versions any architectural register needs during replay. OinO
// hardware caps this at isa.OinOMaxVersions. Block position p corresponds
// to instruction p % len(t.Insts) of iteration p / len(t.Insts).
//
// A version is live from its write position until the last read of that
// version (or end of block for values carried out). Lifetimes are bucketed
// by register in schedule order, so each bucket's starts come out sorted,
// and the maximum overlap per register is a two-pointer sweep over the
// bucket's sorted ends — O(n log n) against the original all-pairs
// stabbing count. The 5n ints of scratch come from a pool: it runs once
// for each OoO schedule the cluster's producer judges or stores, and once
// per schedule some experiments replay.
func MaxLiveVersions(t *trace.Trace, order []uint16) int {
	n := len(order) // block length (span * trace length)
	tn := len(t.Insts)
	bp := livePool.Get().(*[]int)
	defer livePool.Put(bp)
	*bp = slices.Grow((*bp)[:0], 5*n)
	buf := (*bp)[:5*n]
	clear(buf)
	pos := buf[:n]           // schedule position of each block position
	writeEnd := buf[n : 2*n] // latest reader schedule position per writer
	life := buf[2*n : 3*n]   // lifetime end per writer
	starts := buf[3*n : 4*n] // bucketed lifetime starts
	ends := buf[4*n:]        // bucketed lifetime ends
	for k, s := range order {
		pos[s] = k
	}
	var lastWrite [isa.NumRegs]int // block position of last writer in program order
	for r := range lastWrite {
		lastWrite[r] = -1
	}
	// A reader at schedule position 0 never records (0 > 0 is false), so
	// writeEnd[w] > 0 exactly when some reader recorded one. The original
	// map-based sweep behaved the same way via the map's zero value, and
	// replay version counts are part of the simulator's frozen behaviour.
	for j := 0; j < n; j++ {
		in := t.Insts[j%tn]
		for _, src := range [2]isa.Reg{in.Src1, in.Src2} {
			if !src.Valid() {
				continue
			}
			if w := lastWrite[src]; w >= 0 && pos[j] > writeEnd[w] {
				writeEnd[w] = pos[j]
			}
		}
		if in.HasDst() {
			lastWrite[in.Dst] = j
		}
	}
	// life[j] is block position j's lifetime end, or -1 when j writes no
	// register or its lifetime is degenerate (all reads scheduled before
	// the write): that covers no point, and the maximum overlap is always
	// attained at a non-degenerate lifetime's start, so it cannot
	// contribute. off counts the lifetimes per register.
	var off [isa.NumRegs + 1]int // bucket r is starts/ends[off[r]:off[r+1]]
	for j := 0; j < n; j++ {
		life[j] = -1
		in := t.Insts[j%tn]
		if !in.HasDst() {
			continue
		}
		end := pos[j]
		if writeEnd[j] > 0 {
			end = writeEnd[j]
		}
		if lastWrite[in.Dst] == j {
			end = n // carried out of the block: live until replay end
		}
		if end >= pos[j] {
			life[j] = end
			off[in.Dst+1]++
		}
	}
	for r := 1; r <= isa.NumRegs; r++ {
		off[r] += off[r-1]
	}
	fill := off
	for k, s := range order {
		if life[s] < 0 {
			continue
		}
		r := t.Insts[int(s)%tn].Dst
		starts[fill[r]] = k
		ends[fill[r]] = life[s]
		fill[r]++
	}
	maxV := 1
	for r := 0; r < isa.NumRegs; r++ {
		lo, hi := off[r], off[r+1]
		// Count the maximum number of lifetimes of this register covering
		// any one lifetime's start: starts are sorted; sweep ends alongside.
		be := ends[lo:hi]
		slices.Sort(be)
		k := 0
		for i := lo; i < hi; i++ {
			for be[k] < starts[i] {
				k++
			}
			if v := (i - lo) - k + 1; v > maxV {
				maxV = v
			}
		}
	}
	return maxV
}
