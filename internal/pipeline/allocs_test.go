package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// allocsTrace is a ~40-instruction loop body with four partially independent
// chains and regular memory traffic: enough ILP for the window to matter and
// enough loads for memory latency to dominate stalls, like the generated
// workloads the cluster layer simulates.
func allocsTrace() *trace.Trace {
	t := &trace.Trace{ID: 4242, Streams: []trace.StreamSpec{{WorkingSet: 1 << 20, Stride: 64}}}
	for c := 0; c < 4; c++ {
		base := isa.Reg(1 + 2*c)
		t.Insts = append(t.Insts,
			isa.Inst{Op: isa.Load, Dst: base, Src1: base},
			isa.Inst{Op: isa.IntALU, Dst: base + 1, Src1: base, Src2: base + 1},
			isa.Inst{Op: isa.IntMul, Dst: base, Src1: base + 1},
			isa.Inst{Op: isa.IntALU, Dst: base + 1, Src1: base, Src2: base + 1},
			isa.Inst{Op: isa.FPAdd, Dst: isa.NumIntRegs + base, Src1: isa.NumIntRegs + base},
			isa.Inst{Op: isa.IntALU, Dst: base, Src1: base + 1},
			isa.Inst{Op: isa.Load, Dst: base + 1, Src1: base},
			isa.Inst{Op: isa.IntALU, Dst: base + 1, Src1: base + 1, Src2: base},
			isa.Inst{Op: isa.Store, Src1: base + 1},
		)
	}
	t.Insts = append(t.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: 1})
	return t
}

// allocsRequest is a core-shaped request over tr whose load latencies mimic
// the memory hierarchy: mostly L1 hits, some L2, occasional DRAM misses.
func allocsRequest(pol Policy, tr *trace.Trace) Request {
	rng := xrand.New(7)
	lats := [8]int{2, 2, 2, 2, 2, 17, 17, 137}
	return Request{
		Trace:             tr,
		Deps:              trace.BuildDepGraph(tr),
		Iterations:        16,
		Policy:            pol,
		Width:             isa.IssueWidth,
		Window:            isa.ROBSize,
		MispredictPenalty: isa.OoOPipelineDepth,
		LoadLatency:       func(int) int { return lats[rng.Intn(len(lats))] },
	}
}

// TestPipelineRunAllocs pins the hot path's allocation budget: a steady-state
// run on an owned Engine (the path every core takes) may allocate only the
// result memo's entries, not per-run scratch, and a memo hit allocates
// nothing. Every engine is covered: the in-order pass on program order and
// on a recorded order, and age-order placement, also behind fetch gates and
// on a trace with a divide, whose hold takes back displaced claims.
// The simulating bound is deliberately a little loose so unrelated runtime
// changes don't flake it; the pre-rewrite engine sat near 1180 allocs/op.
func TestPipelineRunAllocs(t *testing.T) {
	tr := allocsTrace()
	recorded := allocsRequest(RecordedOrder, tr)
	recorded.ProbeSpan = 4
	recorded.Order = recordedOrderFor(tr, recorded.ProbeSpan)
	gated := allocsRequest(Dataflow, tr)
	gated.FetchGate = fetchGatePattern(3, 7)
	divide := allocsTrace()
	divide.Insts[2].Op = isa.IntDiv
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"placed dataflow", allocsRequest(Dataflow, tr)},
		{"program order", allocsRequest(ProgramOrder, tr)},
		{"recorded order", recorded},
		{"fetch-gated placed dataflow", gated},
		{"placed divide", allocsRequest(Dataflow, divide)},
	} {
		eng := NewEngine()
		req := c.req
		eng.Run(req) // size the scratch and build the memoized flatDeps
		allocs := testing.AllocsPerRun(100, func() { eng.Run(req) })
		if allocs > 8 {
			t.Errorf("%s: Engine.Run allocates %.0f/op, want <= 8", c.name, allocs)
		}

		// The same inputs every time: stored on the second sighting, hits after.
		lats := [8]int{2, 2, 2, 2, 2, 17, 17, 137}
		req.LoadLatency = func(k int) int { return lats[k%len(lats)] }
		eng.Run(req)
		eng.Run(req)
		allocs = testing.AllocsPerRun(100, func() {
			if eng.Run(req); !eng.MemoHit() {
				t.Fatalf("%s: a repeated request missed the memo", c.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a memo hit allocates %.0f/op, want 0", c.name, allocs)
		}
	}
}
