package pipeline

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// pipelinedTrace is everyClassTrace with each divide mapped to its
// pipelined sibling, so no unit is ever held and no take-back runs.
func pipelinedTrace(seed uint64) *trace.Trace {
	tr := everyClassTrace(seed)
	for i := range tr.Insts {
		switch tr.Insts[i].Op {
		case isa.IntDiv:
			tr.Insts[i].Op = isa.IntMul
		case isa.FPDiv:
			tr.Insts[i].Op = isa.FPMul
		}
	}
	return tr
}

// checkPlacement runs one Dataflow request over a divide-free trace through
// a fresh Engine and through reused, and compares both with the frozen
// reference engine field for field (sameAsReference).
func checkPlacement(t *testing.T, reused *Engine, seed uint64, width, window, span, iters, penalty, pattern uint8, noProbe bool) {
	t.Helper()
	tr := pipelinedTrace(seed)
	deps := trace.BuildDepGraph(tr)
	n := int(iters%12) + 1
	mk := func() Request {
		req := Request{
			Trace: tr, Deps: deps, Iterations: n, Policy: Dataflow, ProbeSpan: min(int(span%4)+1, n), NoProbe: noProbe,
			Width: int(width%4) + 1, Window: 1 << (window % 8), MispredictPenalty: int(penalty % 24),
		}
		if pattern&1 != 0 {
			req.LoadLatency = memLatPattern(seed + 1)
		}
		if pattern&2 != 0 {
			req.Mispredicts = mispredictPattern(seed+2, float64(pattern>>4)/15)
		}
		if pattern&4 != 0 {
			req.FetchGate = fetchGatePattern(int(pattern>>3&3)+1, int(pattern>>5)*9+1)
		}
		return req
	}
	want := referenceRun(mk())
	if got := simulate(mk()); !sameAsReference(got, want, noProbe) {
		t.Fatalf("seed %d: fresh engine (no probe %v) diverged from reference\n got: %+v\nwant: %+v", seed, noProbe, got, want)
	}
	if got := reused.Run(mk()); !sameAsReference(got, want, noProbe) {
		t.Fatalf("seed %d: reused engine (no probe %v, memo hit %v) diverged from reference\n got: %+v\nwant: %+v",
			seed, noProbe, reused.MemoHit(), got, want)
	}
}

// FuzzPlacementMatchesReference runs checkPlacement on fuzzed inputs: every
// width, window, probe span, fetch-gate and mispredict pattern, probed or
// not.
func FuzzPlacementMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed), uint8(seed*5), uint8(seed), uint8(seed*3), uint8(seed*7), uint8(seed), seed%2 == 0)
	}
	reused := NewEngine()
	f.Fuzz(func(t *testing.T, seed uint64, width, window, span, iters, penalty, pattern uint8, noProbe bool) {
		checkPlacement(t, reused, seed, width, window, span, iters, penalty, pattern, noProbe)
	})
}

// TestPlacementMatchesReference runs checkPlacement on 1000 seeded draws of
// the fuzz target's inputs, each probed and then not, so every test run
// covers narrow windows that retirement bandwidth throttles and gated and
// idle spans.
func TestPlacementMatchesReference(t *testing.T) {
	rng := xrand.New(34)
	reused := NewEngine()
	for k := 0; k < 1000; k++ {
		var b [6]uint8
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		seed := rng.Uint64() % 100_000
		for _, noProbe := range []bool{false, true} {
			checkPlacement(t, reused, seed, b[0], b[1], b[2], b[3], b[4], b[5], noProbe)
		}
	}
}

// TestPlacementServesFormerFallbacks places each request that once fell
// back to the cycle-stepped loop and checks it against the reference, on a
// fresh Engine and on one reused across the cases:
//   - iteration 1's branch resolves before iteration 0's, and takes its own
//     iteration's mispredict outcome;
//   - a divide that issues while an older multiply waits for its operand
//     holds the unit through the multiply's first placement, so the
//     multiply is taken back and issues after the hold;
//   - a serial chain of loads at the largest latency, in the largest
//     window, issues past 2^16 cycles beyond the dispatch frontier, so the
//     occupancy ring grows past what an engine keeps, and is dropped.
func TestPlacementServesFormerFallbacks(t *testing.T) {
	// A load whose latency differs per iteration feeds the terminating
	// branch, and nothing carries between iterations.
	loadBranch := &trace.Trace{ID: 901, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 2, Src1: 3},
		{Op: isa.IntALU, Dst: 4, Src1: 2, Src2: 5},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 4},
	}}
	displace := &trace.Trace{ID: 902, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.IntMul, Dst: 2, Src1: 1},
		{Op: isa.IntDiv, Dst: 3, Src1: 4},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	chain := &trace.Trace{ID: 903, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	reused := NewEngine()
	for _, c := range []struct {
		name          string
		tr            *trace.Trace
		lats          []int
		window, iters int
		check         func(e *Engine) bool // the run took the path the case is for
	}{
		{"younger branch first", loadBranch, []int{137, 2, 2}, isa.ROBSize, 4, func(e *Engine) bool {
			return e.dyns[5].issued < e.dyns[2].issued
		}},
		{"divide displaces an older multiply", displace, []int{2}, isa.ROBSize, 4, func(e *Engine) bool {
			return e.dyns[1].issued >= e.dyns[2].issued+int32(isa.Latency[isa.IntDiv])
		}},
		{"chain past the kept ring", chain, []int{maxLatency}, maxWindow, 200, func(e *Engine) bool {
			return e.occ.words == nil
		}},
	} {
		mk := func() Request {
			return Request{
				Trace: c.tr, Deps: trace.BuildDepGraph(c.tr), Iterations: c.iters, Policy: Dataflow,
				Width: isa.IssueWidth, Window: c.window, ProbeSpan: 2,
				MispredictPenalty: isa.OoOPipelineDepth,
				LoadLatency:       func(k int) int { return c.lats[k%len(c.lats)] },
				Mispredicts:       mispredictPattern(5, 0.5), FetchGate: fetchGatePattern(2, 9),
			}
		}
		want := referenceRun(mk())
		fresh := NewEngine()
		if got := fresh.run(mk(), false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fresh engine diverged from reference\n got: %+v\nwant: %+v", c.name, got, want)
		}
		if !c.check(fresh) {
			t.Errorf("%s: the run did not take the path the case is for", c.name)
		}
		if got := reused.run(mk(), false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused engine diverged from reference\n got: %+v\nwant: %+v", c.name, got, want)
		}
	}
}

// TestSuiteTakesPlacement pins the traffic placement serves: every suite
// loop trace, in the shape of an OoO core's request (ooo.Core.simulate:
// issue width, ROB window, schedule span, mispredict penalty, mispredicts
// drawn), matches the reference, and the occupancy ring stays within what
// an engine keeps between runs.
func TestSuiteTakesPlacement(t *testing.T) {
	e := NewEngine()
	for i, l := range suiteLoops() {
		mk := func() Request { return suiteDataflowRequest(i, l) }
		got := e.run(mk(), false)
		if e.occ.words == nil {
			t.Fatalf("suite trace %d: the occupancy ring grew past %d words", l.Trace.ID, maxKeptRing)
		}
		if want := referenceRun(mk()); !reflect.DeepEqual(got, want) {
			t.Fatalf("suite trace %d: placement diverged from reference\n got: %+v\nwant: %+v", l.Trace.ID, got, want)
		}
	}
}

// suiteDataflowRequest is the i-th suite loop's request in the shape an
// OoO core makes (ooo.Core.simulate: issue width, ROB window, schedule
// span, mispredict penalty, mispredicts drawn), with memory-like load
// latencies and fetch gates.
func suiteDataflowRequest(i int, l program.Loop) Request {
	return Request{
		Trace: l.Trace, Deps: l.Deps, Iterations: suiteMeasureIters, Policy: Dataflow,
		Width: isa.IssueWidth, Window: isa.ROBSize, ProbeSpan: suiteScheduleSpan,
		MispredictPenalty: isa.OoOPipelineDepth,
		LoadLatency:       memLatPattern(uint64(i) + 1),
		Mispredicts:       mispredictPattern(uint64(i), 0.5),
		FetchGate:         fetchGatePattern(3, 7),
	}
}

// BenchmarkPlaceSuite places every suite loop's OoO-shaped Dataflow
// request on one engine, the memo bypassed: one op is one pass over the
// suite, the placement work of an OoO measurement of each loop.
func BenchmarkPlaceSuite(b *testing.B) {
	loops := suiteLoops()
	reqs := make([]Request, len(loops))
	for i, l := range loops {
		reqs[i] = suiteDataflowRequest(i, l)
	}
	e := NewEngine()
	b.ResetTimer()
	for range b.N {
		for _, req := range reqs {
			e.run(req, false)
		}
	}
}

// TestOccupancyWordFits: a cycle's issue count and each pool's claims,
// biased for the claim test, fit their 4-bit fields of an occupancy word,
// so no claim carries into the next field whatever the request's width.
// The pools' total of units bounds both counts, and the width's bias caps
// the width at occFieldTop, which only that total reaches.
func TestOccupancyWordFits(t *testing.T) {
	units := 0
	for _, k := range isa.FUCount {
		units += k
	}
	if units > occFieldTop || occPoolShift*(isa.NumFUs+1) > 32 {
		t.Errorf("%d units over %d pools overflow a 32-bit word of %d-bit biased fields", units, isa.NumFUs, occPoolShift)
	}
}

// TestPlacementLeavesGuardToLoop: placement panics with the cycle loop's
// message exactly when the loop would, once the run's last retire reaches
// the convergence guard, and runs to the end below it. Fetch gates carry
// the run to the guard, and a one-entry window keeps every issue at its
// dispatch cycle, so the ring stays small.
func TestPlacementLeavesGuardToLoop(t *testing.T) {
	tr := &trace.Trace{ID: 903, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	const gate = 1 << 16
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Policy: Dataflow, Width: 3, Window: 1,
		FetchGate: func(int) int { return gate }}
	e := NewEngine()
	req.Iterations = maxCycle/gate - 2
	if res := e.run(req, false); res.Cycles >= maxCycle {
		t.Fatalf("%d iterations below the guard ran %d cycles", req.Iterations, res.Cycles)
	}
	req.Iterations = maxCycle/gate + 2
	defer func() {
		if msg := recover(); msg != "pipeline: dataflow simulation did not converge" {
			t.Errorf("past the guard: panic %v", msg)
		}
	}()
	e.run(req, false)
}

// TestStaticTableFollowsTrace runs two traces with the same registers, so
// the same dependence graph, but different classes over one graph, in
// turn: a pipelined trace and its twin with a divide, whose unit is held.
// The per-static table cached on the graph must be the running trace's,
// so both match the reference.
func TestStaticTableFollowsTrace(t *testing.T) {
	placed := pipelinedTrace(11)
	divide := &trace.Trace{ID: placed.ID + 1, Streams: placed.Streams, Insts: slices.Clone(placed.Insts)}
	divide.Insts[0].Op = isa.IntDiv
	deps := trace.BuildDepGraph(placed)
	for _, tr := range []*trace.Trace{placed, divide, placed, divide} {
		mk := func() Request {
			return Request{Trace: tr, Deps: deps, Iterations: 6, Policy: Dataflow, Width: 3, Window: 32,
				LoadLatency: memLatPattern(5)}
		}
		want := referenceRun(mk())
		e := NewEngine()
		if got := e.run(mk(), false); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d: got %+v, want %+v", tr.ID, got, want)
		}
	}
}

// TestTakeBackRedirectsAgain: a divide that terminates the trace, taken
// back and placed again where its hold displaces an older claim once more,
// recomputes its iteration's redirect before the take-back it starts.
func TestTakeBackRedirectsAgain(t *testing.T) {
	tr := everyClassTrace(99073)
	last := &tr.Insts[len(tr.Insts)-1]
	last.Op, last.Dst, last.Src2 = isa.IntDiv, 7, 2
	deps := trace.BuildDepGraph(tr)
	mk := func() Request {
		return Request{Trace: tr, Deps: deps, Iterations: 5, Policy: Dataflow, ProbeSpan: 3,
			Width: 3, Window: 32, MispredictPenalty: 3, Mispredicts: mispredictPattern(99075, 0.6)}
	}
	if got, want := simulate(mk()), referenceRun(mk()); !reflect.DeepEqual(got, want) {
		t.Fatalf("diverged from reference\n got: %+v\nwant: %+v", got, want)
	}
}

// TestLongLatencyChainAllocs: the occupancy ring spans the window's claims
// ahead of the dispatch frontier, so a chain of loads at the largest
// latency resolve accepts must still place in a small, fixed amount of
// memory at every window a Dataflow request may name.
func TestLongLatencyChainAllocs(t *testing.T) {
	tr := &trace.Trace{ID: 904, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	for _, window := range []int{128, maxWindow} {
		req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 200, Policy: Dataflow,
			Width: isa.IssueWidth, Window: window, NoProbe: true,
			LoadLatency: func(int) int { return maxLatency }}
		e := NewEngine()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.run(req, false)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
			t.Errorf("window %d: one run allocated %d bytes, want <= 2 MiB", window, got)
		}
	}
}
