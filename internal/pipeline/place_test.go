package pipeline

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// pipelinedTrace is everyClassTrace with each divide mapped to its
// pipelined sibling, so the trace lies in placement's domain.
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

// checkPlacement runs one Dataflow request over a divide-free trace, which
// runPlaced serves unless a younger branch resolves first, through a fresh
// Engine and through reused, and compares both with the frozen reference
// engine field for field (sameAsReference).
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
		t.Fatalf("seed %d: reused engine (no probe %v, memo hit %v, placed %v) diverged from reference\n got: %+v\nwant: %+v",
			seed, noProbe, reused.MemoHit(), reused.placed, got, want)
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

// TestPlacementFallsBack forces each of runPlaced's ways out of its domain
// and checks which engine ran and that the result is the reference's,
// each followed by a request of the same shape that placement serves. A
// fresh Engine and one reused across the cases, so that every placement
// follows an abort, must agree.
func TestPlacementFallsBack(t *testing.T) {
	// A load whose latency differs per iteration feeds the terminating
	// branch, and nothing carries between iterations.
	loadBranch := &trace.Trace{ID: 901, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 2, Src1: 3},
		{Op: isa.IntALU, Dst: 4, Src1: 2, Src2: 5},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 4},
	}}
	divide := pipelinedTrace(3)
	divide.Insts = append([]isa.Inst{{Op: isa.IntDiv, Dst: 6, Src1: 6, Src2: 7}}, divide.Insts...)
	chain := &trace.Trace{ID: 902, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	latencies := func(lats ...int) func() func(int) int {
		return func() func(int) int { return func(k int) int { return lats[k%len(lats)] } }
	}
	pattern := func(seed uint64) func() func(int) int {
		return func() func(int) int { return memLatPattern(seed) }
	}
	reused := NewEngine()
	for _, c := range []struct {
		name   string
		tr     *trace.Trace
		lats   func() func(int) int // a fresh callback for each run
		placed bool
	}{
		// Iteration 1's load hits while iteration 0's misses, so iteration
		// 1's branch resolves first and takes the first mispredict draw.
		{"younger branch first", loadBranch, latencies(137, 2, 2), false},
		{"branches in order", loadBranch, latencies(2, 17, 137), true},
		{"divide", divide, pattern(4), false},
		{"divide-free", pipelinedTrace(3), pattern(4), true},
		// The serial chain issues its second load maxInput cycles past the
		// dispatch frontier.
		{"chain past the span", chain, latencies(maxInput), false},
		{"chain within the span", chain, latencies(maxPlaceSpan / 8), true},
	} {
		mk := func() Request {
			return Request{
				Trace: c.tr, Deps: trace.BuildDepGraph(c.tr), Iterations: 4, Policy: Dataflow,
				Width: isa.IssueWidth, Window: isa.ROBSize, ProbeSpan: 2,
				MispredictPenalty: isa.OoOPipelineDepth, LoadLatency: c.lats(),
				Mispredicts: mispredictPattern(5, 0.5), FetchGate: fetchGatePattern(2, 9),
			}
		}
		want := referenceRun(mk())
		fresh := NewEngine()
		if got := fresh.run(mk(), false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fresh engine diverged from reference\n got: %+v\nwant: %+v", c.name, got, want)
		}
		if fresh.placed != c.placed {
			t.Errorf("%s: placed = %v, want %v", c.name, fresh.placed, c.placed)
		}
		if got := reused.run(mk(), false); !reflect.DeepEqual(got, want) || reused.placed != c.placed {
			t.Errorf("%s: reused engine (placed %v) diverged from reference\n got: %+v\nwant: %+v",
				c.name, reused.placed, got, want)
		}
	}
}

// TestSuiteTakesPlacement pins the traffic placement serves: every suite
// loop trace, in the shape of an OoO core's request (ooo.Core.simulate:
// issue width, ROB window, schedule span, mispredict penalty, mispredicts
// drawn), is placed and matches the reference. A generator change that adds
// divides or breaks iteration-order branch resolution fails here instead of
// silently sending the OoO's measurements back to runDataflow.
func TestSuiteTakesPlacement(t *testing.T) {
	e := NewEngine()
	for i, l := range suiteLoops() {
		mk := func() Request {
			return Request{
				Trace: l.Trace, Deps: l.Deps, Iterations: suiteMeasureIters, Policy: Dataflow,
				Width: isa.IssueWidth, Window: isa.ROBSize, ProbeSpan: suiteScheduleSpan,
				MispredictPenalty: isa.OoOPipelineDepth,
				LoadLatency:       memLatPattern(uint64(i) + 1),
				Mispredicts:       mispredictPattern(uint64(i), 0.5),
				FetchGate:         fetchGatePattern(3, 7),
			}
		}
		got := e.run(mk(), false)
		if !e.placed {
			t.Fatalf("suite trace %d: Dataflow request fell back to runDataflow", l.Trace.ID)
		}
		if want := referenceRun(mk()); !reflect.DeepEqual(got, want) {
			t.Fatalf("suite trace %d: placement diverged from reference\n got: %+v\nwant: %+v", l.Trace.ID, got, want)
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

// TestPlacementLeavesGuardToLoop: a placed run whose last retire reaches
// the convergence guard aborts to runDataflow, which panics as it always
// has. A one-entry window keeps every issue at its dispatch cycle, so only
// the guard, not the occupancy ring's span, stops the placement.
func TestPlacementLeavesGuardToLoop(t *testing.T) {
	tr := &trace.Trace{ID: 903, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	const lat = 1 << 16
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Policy: Dataflow, Width: 3, Window: 1,
		LoadLatency: func(int) int { return lat }}
	e := NewEngine()
	req.Iterations = maxCycle/lat - 2
	e.run(req, false)
	if !e.placed {
		t.Fatalf("%d iterations below the guard fell back to runDataflow", req.Iterations)
	}
	req.Iterations = maxCycle/lat + 2
	defer func() {
		if msg := recover(); msg != "pipeline: dataflow simulation did not converge" {
			t.Errorf("past the guard: panic %v", msg)
		}
	}()
	e.run(req, false)
}

// TestStaticTableFollowsTrace runs two traces with the same registers, so
// the same dependence graph, but different classes over one graph, in
// turn: a pipelined trace that placement serves and its twin with a
// divide that takes the dataflow loop. The per-static table cached on the
// graph must be the running trace's, so both match the reference.
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
		if got := e.run(mk(), false); !reflect.DeepEqual(got, want) || e.placed != (tr == placed) {
			t.Fatalf("trace %d: placed %v, got %+v, want %+v", tr.ID, e.placed, got, want)
		}
	}
}
