// Package trace defines the unit of schedule memoization: a trace is the
// dynamic instruction sequence between two consecutive backward branches
// (about 50 instructions on average — a loop body or small function). The
// OoO core records the issue order of a repeating trace as a Schedule, which
// the Schedule Cache stores and an OinO-mode InO core replays.
package trace

import (
	"fmt"
	"sync/atomic"

	"repro/internal/isa"
)

// ID uniquely identifies a static trace (its starting PC in a real machine).
type ID uint64

// StreamKind describes the address pattern walked by a memory stream.
type StreamKind uint8

const (
	// StreamStrided walks addresses with a fixed stride (array traversal).
	StreamStrided StreamKind = iota
	// StreamRandom touches uniformly random addresses inside a working set
	// (pointer chasing, hash tables). Defeats the stride prefetcher.
	StreamRandom
)

// StreamSpec describes one memory address stream used by the loads/stores of
// a trace. Streams are evaluated by the memory hierarchy (internal/mem).
type StreamSpec struct {
	Kind StreamKind
	// Base is the starting virtual address of the stream's region.
	Base uint64
	// Stride is the byte stride for StreamStrided.
	Stride uint64
	// WorkingSet is the region size in bytes the stream stays within.
	WorkingSet uint64
}

// Trace is a static trace: its instructions plus behavioural parameters the
// workload generator attaches (branch predictability, schedule stability).
type Trace struct {
	ID    ID
	Insts []isa.Inst
	// Streams are the memory address streams referenced by Inst.MemStream.
	Streams []StreamSpec

	// MispredictRate is the probability the trace's terminating branch (or
	// an internal branch) mispredicts on a given iteration, as measured by
	// the branch predictor for this trace's control behaviour.
	MispredictRate float64

	// Stability is the probability that two consecutive OoO executions of
	// this trace produce the same issue schedule (Section 3.3.1: traces with
	// variable load behaviour or control flow produce varying schedules).
	Stability float64

	// AliasRate is the per-iteration probability that a load reordered
	// above a store aliases with it, squashing an OinO replay.
	AliasRate float64

	// classes caches ClassCounts, built on first use.
	classes atomic.Pointer[[isa.NumClasses]int]
}

// ClassCounts returns how many of the trace's instructions fall in each
// class. The tally is built on first use and kept, so Insts must not
// change after the first call, as a trace is immutable once built;
// concurrent first callers build equal tallies and one is kept.
func (t *Trace) ClassCounts() [isa.NumClasses]int {
	if c := t.classes.Load(); c != nil {
		return *c
	}
	c := new([isa.NumClasses]int)
	for _, in := range t.Insts {
		if in.Op < isa.NumClasses {
			c[in.Op]++
		}
	}
	t.classes.Store(c)
	return *c
}

// NumMemOps returns how many loads and stores the trace contains.
func (t *Trace) NumMemOps() (loads, stores int) {
	c := t.ClassCounts()
	return c[isa.Load], c[isa.Store]
}

// Len returns the number of instructions in the trace.
func (t *Trace) Len() int { return len(t.Insts) }

// Validate checks structural invariants of the trace.
func (t *Trace) Validate() error {
	if len(t.Insts) == 0 {
		return fmt.Errorf("trace %d: empty", t.ID)
	}
	for i, in := range t.Insts {
		if in.Op >= isa.NumClasses {
			return fmt.Errorf("trace %d inst %d: bad class %d", t.ID, i, in.Op)
		}
		if in.Dst != isa.NoReg && !in.Dst.Valid() {
			return fmt.Errorf("trace %d inst %d: bad dst %d", t.ID, i, in.Dst)
		}
		if in.Src1 != isa.NoReg && !in.Src1.Valid() {
			return fmt.Errorf("trace %d inst %d: bad src1 %d", t.ID, i, in.Src1)
		}
		if in.Src2 != isa.NoReg && !in.Src2.Valid() {
			return fmt.Errorf("trace %d inst %d: bad src2 %d", t.ID, i, in.Src2)
		}
		if in.Op.IsMem() && int(in.MemStream) >= len(t.Streams) {
			return fmt.Errorf("trace %d inst %d: stream %d out of range", t.ID, i, in.MemStream)
		}
	}
	if t.MispredictRate < 0 || t.MispredictRate > 1 {
		return fmt.Errorf("trace %d: mispredict rate %f out of range", t.ID, t.MispredictRate)
	}
	if t.Stability < 0 || t.Stability > 1 {
		return fmt.Errorf("trace %d: stability %f out of range", t.ID, t.Stability)
	}
	return nil
}

// DepGraph is the register dependence structure of one trace iteration,
// plus the loop-carried dependences into the next iteration. Edge i -> j
// means instruction j reads the value produced by instruction i.
type DepGraph struct {
	// Preds[j] lists the in-trace producers of instruction j's sources.
	Preds [][]int
	// CarriedPreds[j] lists producers from the *previous* iteration: the
	// instruction indexes whose results instruction j reads as live-ins.
	CarriedPreds [][]int
	// LastWriter[r] is the index of the last instruction writing register r,
	// or -1. Used to wire loop-carried edges between unrolled iterations.
	LastWriter [isa.NumRegs]int

	// derived caches a consumer-specific flattened form of the graph (the
	// pipeline engine's operand table), built on first use via Derived.
	derived atomic.Value
}

// Derived returns the memoized derived form of the graph, building it with
// build on first use. The graph is treated as immutable after BuildDepGraph;
// concurrent callers may race to build, in which case one deterministic
// value wins and duplicates are discarded — callers must therefore derive
// values purely from the graph itself.
func (g *DepGraph) Derived(build func() any) any {
	if v := g.derived.Load(); v != nil {
		return v
	}
	v := build()
	g.derived.Store(v)
	return v
}

// BuildDepGraph computes RAW register dependences within a trace and the
// loop-carried dependences created when the trace executes back to back
// (registers read before they are written in the same iteration were written
// by the previous iteration, if the trace writes them at all).
func BuildDepGraph(t *Trace) *DepGraph {
	n := len(t.Insts)
	g := &DepGraph{
		Preds:        make([][]int, n),
		CarriedPreds: make([][]int, n),
	}
	var writer [isa.NumRegs]int
	for r := range writer {
		writer[r] = -1
	}
	// readsBeforeWrite[r] collects instructions that read r before any write
	// to r in this iteration; these become loop-carried edges.
	var readsBeforeWrite [isa.NumRegs][]int
	for j, in := range t.Insts {
		for _, src := range [2]isa.Reg{in.Src1, in.Src2} {
			if !src.Valid() {
				continue
			}
			if w := writer[src]; w >= 0 {
				g.Preds[j] = append(g.Preds[j], w)
			} else {
				readsBeforeWrite[src] = append(readsBeforeWrite[src], j)
			}
		}
		if in.HasDst() {
			writer[in.Dst] = j
		}
	}
	g.LastWriter = writer
	for r := 0; r < isa.NumRegs; r++ {
		if writer[r] < 0 {
			continue // register is pure live-in; always ready
		}
		for _, j := range readsBeforeWrite[r] {
			g.CarriedPreds[j] = append(g.CarriedPreds[j], writer[r])
		}
	}
	return g
}

// Schedule is a memoized OoO issue schedule for a trace: the order in which
// the OoO issued the trace's instructions, plus the metadata block that lets
// the OinO-mode LSQ reconstruct original memory order (Section 3.3.2).
type Schedule struct {
	TraceID ID
	// Span is how many consecutive trace iterations the schedule covers as
	// one atomic replay unit. Recording across iterations preserves the
	// OoO's cross-iteration overlap, which in-order replay needs.
	Span int
	// Order[k] is the block position issued k-th: position it*traceLen+j
	// is instruction j of the block's it-th iteration.
	Order []uint16
	// MemOrder lists, in original program order, the schedule positions of
	// the trace's memory operations; the OinO LSQ uses it to insert loads
	// and stores in program sequence so aliases are detected correctly.
	MemOrder []uint16
	// RecordedCycles is the per-iteration cycle count the OoO observed when
	// it recorded the schedule (used by repeatability matching).
	RecordedCycles int
	// ReorderedInsts counts instructions issued out of program order; a
	// proxy for how much the schedule gains over program order.
	ReorderedInsts int
	// MaxVersions is the maximum number of simultaneously-live renamed
	// versions of any architectural register the schedule requires; replay
	// needs MaxVersions <= isa.OinOMaxVersions.
	MaxVersions int
}

// MetadataBytes is the fixed per-schedule metadata block (20 B per the
// paper) storing program-sequence ordering of memory operations.
const MetadataBytes = 20

// SizeBytes returns the Schedule Cache footprint of the schedule.
func (s *Schedule) SizeBytes() int {
	return len(s.Order)*isa.InstBytes + MetadataBytes
}

// Replayable reports whether the schedule satisfies the OinO hardware
// limits: the versioned PRF bound and the replay-LSQ capacity. Stores
// commit and the LSQ drains at iteration boundaries inside the block, so
// the capacity bound applies per iteration.
func (s *Schedule) Replayable() bool {
	span := s.Span
	if span <= 0 {
		span = 1
	}
	return s.MaxVersions <= isa.OinOMaxVersions && len(s.MemOrder)/span <= isa.OinOLSQSize
}

// Validate checks that the schedule is a permutation of block positions.
func (s *Schedule) Validate(traceLen int) error {
	span := s.Span
	if span <= 0 {
		span = 1
	}
	if len(s.Order) != traceLen*span {
		return fmt.Errorf("schedule for trace %d: order len %d != trace len %d x span %d",
			s.TraceID, len(s.Order), traceLen, span)
	}
	seen := make([]bool, traceLen*span)
	for _, pos := range s.Order {
		if int(pos) >= len(seen) {
			return fmt.Errorf("schedule for trace %d: position %d out of range", s.TraceID, pos)
		}
		if seen[pos] {
			return fmt.Errorf("schedule for trace %d: position %d duplicated", s.TraceID, pos)
		}
		seen[pos] = true
	}
	return nil
}
