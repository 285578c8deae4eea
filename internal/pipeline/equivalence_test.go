package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// randomRequest builds one random but well-formed request from a seed. It
// returns a factory, not a request: both engines must receive their own
// instance so stateful callbacks (seeded rngs) replay identically for each.
func randomRequest(seed uint64) func() Request {
	rng := xrand.New(seed)
	tr := randomTrace(seed%50_000 + 1)
	deps := trace.BuildDepGraph(tr)
	policy := Policy(rng.Intn(3))
	width := 1 + rng.Intn(4)
	windows := []int{4, 8, 16, 32, 64, 128}
	window := windows[rng.Intn(len(windows))]
	iters := 1 + rng.Intn(10)
	span := 1 + rng.Intn(4)
	if span > iters {
		span = iters
	}
	penalty := rng.Intn(16)

	useMem := rng.Bool(0.7)
	memSeed := rng.Uint64()
	useMiss := rng.Bool(0.5)
	missSeed := rng.Uint64()
	missP := rng.Float64()
	useGate := rng.Bool(0.5)
	gateEvery := 1 + rng.Intn(4)
	gateStall := 1 + rng.Intn(40)

	var order []uint16
	if policy == RecordedOrder {
		order = recordedOrderFor(tr, span)
	}

	return func() Request {
		req := Request{
			Trace:             tr,
			Deps:              deps,
			Iterations:        iters,
			Policy:            policy,
			Order:             order,
			ProbeSpan:         span,
			Width:             width,
			Window:            window,
			MispredictPenalty: penalty,
		}
		if useMem {
			req.LoadLatency = memLatPattern(memSeed)
		}
		if useMiss {
			req.Mispredicts = mispredictPattern(missSeed, missP)
		}
		if useGate {
			req.FetchGate = fetchGatePattern(gateEvery, gateStall)
		}
		return req
	}
}

// TestEquivalenceWithReference drives ~200 random trace/dep/latency configs
// through the event-driven engine and the frozen pre-rewrite reference, and
// requires the Results to match field for field — cycles, IterEnd, the full
// stall breakdown, FUBusy, Issued, IssueOrder and Reordered.
func TestEquivalenceWithReference(t *testing.T) {
	failures := 0
	for seed := uint64(1); seed <= 200; seed++ {
		mk := randomRequest(seed*2654435761 + 17)
		want := referenceRun(mk())
		got := simulate(mk())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (policy %d): engine diverged from reference\n got: %+v\nwant: %+v",
				seed, mk().Policy, got, want)
			if failures++; failures >= 5 {
				t.Fatal("stopping after 5 divergent seeds")
			}
		}
	}
}

// TestEquivalenceEngineReuse re-runs a mix of requests through one shared
// Engine and requires results identical to the reference engine's: scratch
// reuse must not leak state between simulations.
func TestEquivalenceEngineReuse(t *testing.T) {
	e := NewEngine()
	for seed := uint64(1); seed <= 60; seed++ {
		mk := randomRequest(seed*911 + 3)
		want := referenceRun(mk())
		got := e.Run(mk())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reused engine diverged from reference\n got: %+v\nwant: %+v", seed, got, want)
		}
	}
}

// refMaxLiveVersions is the pre-rewrite O(n^2) overlap sweep, kept as the
// oracle for the sort-based linear sweep that replaced it.
func refMaxLiveVersions(t *trace.Trace, order []uint16) int {
	n := len(order)
	inst := func(p int) isa.Inst { return t.Insts[p%len(t.Insts)] }
	pos := make([]int, n)
	for k, s := range order {
		pos[s] = k
	}
	type life struct{ start, end int }
	lives := make(map[isa.Reg][]life)
	lastWrite := make(map[isa.Reg]int)
	writeEnd := make(map[int]int)

	for j := 0; j < n; j++ {
		in := inst(j)
		for _, src := range [2]isa.Reg{in.Src1, in.Src2} {
			if !src.Valid() {
				continue
			}
			if w, ok := lastWrite[src]; ok {
				if pos[j] > writeEnd[w] {
					writeEnd[w] = pos[j]
				}
			}
		}
		if in.HasDst() {
			lastWrite[in.Dst] = j
		}
	}
	for j := 0; j < n; j++ {
		in := inst(j)
		if !in.HasDst() {
			continue
		}
		end, ok := writeEnd[j]
		if !ok {
			end = pos[j]
		}
		if lastWrite[in.Dst] == j {
			end = n
		}
		lives[in.Dst] = append(lives[in.Dst], life{start: pos[j], end: end})
	}
	maxV := 1
	for _, ls := range lives {
		for _, a := range ls {
			overlap := 0
			for _, b := range ls {
				if b.start <= a.start && a.start <= b.end {
					overlap++
				}
			}
			if overlap > maxV {
				maxV = overlap
			}
		}
	}
	return maxV
}

// TestMaxLiveVersionsMatchesReference checks the bucketed sweep against the
// O(n^2) oracle over random schedules of random traces, and over the OoO
// schedules of every workload-suite loop at spans 1-4.
func TestMaxLiveVersionsMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		tr := randomTrace(seed%50_000 + 7_000)
		span := 1 + int(seed%4)
		res := referenceRun(Request{
			Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 8,
			Policy: Dataflow, Width: 3, Window: 128, ProbeSpan: span,
		})
		got := MaxLiveVersions(tr, res.IssueOrder)
		want := refMaxLiveVersions(tr, res.IssueOrder)
		if got != want {
			t.Errorf("seed %d span %d: MaxLiveVersions %d, reference %d", seed, span, got, want)
		}
	}
	for i, l := range suiteLoops() {
		for span := 1; span <= 4; span++ {
			res := simulate(Request{
				Trace: l.Trace, Deps: l.Deps, Iterations: suiteMeasureIters,
				Policy: Dataflow, Width: isa.IssueWidth, Window: isa.ROBSize, ProbeSpan: span,
				MispredictPenalty: isa.OoOPipelineDepth,
				LoadLatency:       memLatPattern(uint64(i)),
				Mispredicts:       mispredictPattern(uint64(i), l.Trace.MispredictRate),
			})
			got := MaxLiveVersions(l.Trace, res.IssueOrder)
			want := refMaxLiveVersions(l.Trace, res.IssueOrder)
			if got != want {
				t.Errorf("suite trace %d span %d: MaxLiveVersions %d, reference %d", l.Trace.ID, span, got, want)
			}
		}
	}
}

// suiteMeasureIters and suiteScheduleSpan are the measurement length the
// cluster asks the cores for and the span of an OoO-recorded schedule
// (ooo.ScheduleSpan, which this package cannot import).
const (
	suiteMeasureIters = 10
	suiteScheduleSpan = 4
)

// suiteLoops returns every loop trace of the generated workload suite.
func suiteLoops() []program.Loop {
	var loops []program.Loop
	for _, b := range program.Suite() {
		for _, ph := range b.Phases {
			loops = append(loops, ph.Loops...)
		}
	}
	return loops
}

// TestMispredictCallsInIterationOrder is why Engine.Run may draw every
// branch outcome up front, in iteration order, and stay bit-identical to
// the lazy engine: on every suite loop, under each policy the cores use,
// the frozen reference engine consults Mispredicts exactly once per
// iteration 0..Iterations-2, in that order. The suite's terminating branch
// reads the loop-carried induction register, so iteration i's branch is
// ready strictly before iteration i+1's and oldest-first select (or the
// OoO-recorded order) resolves it first — whatever the load latencies.
func TestMispredictCallsInIterationOrder(t *testing.T) {
	for i, l := range suiteLoops() {
		df := Request{
			Trace: l.Trace, Deps: l.Deps, Iterations: suiteMeasureIters,
			Policy: Dataflow, Width: isa.IssueWidth, Window: isa.ROBSize,
			ProbeSpan: suiteScheduleSpan, MispredictPenalty: isa.OoOPipelineDepth,
		}
		inorder := Request{
			Trace: l.Trace, Deps: l.Deps, Iterations: suiteMeasureIters,
			Policy: ProgramOrder, Width: isa.IssueWidth, MispredictPenalty: isa.InOPipelineDepth,
		}
		replay := inorder
		replay.Policy = RecordedOrder
		replay.Order = referenceRun(df).IssueOrder
		replay.ProbeSpan = suiteScheduleSpan
		replay.Iterations = 12 // rounded up to whole spans, as ino.MeasureReplay does
		for _, req := range []Request{df, inorder, replay} {
			var calls []int
			draw := mispredictPattern(uint64(i), 0.5)
			req.Mispredicts = func(it int) bool {
				calls = append(calls, it)
				return draw(it)
			}
			req.LoadLatency = memLatPattern(uint64(i) + 1)
			if req.Policy != RecordedOrder {
				req.FetchGate = fetchGatePattern(3, 7)
			}
			referenceRun(req)
			ok := len(calls) == req.Iterations-1
			for k, it := range calls {
				ok = ok && it == k
			}
			if !ok {
				t.Fatalf("suite trace %d policy %d: Mispredicts calls %v, want 0..%d in order",
					l.Trace.ID, req.Policy, calls, req.Iterations-2)
			}
		}
	}
}

// everyClassTrace generates a small well-formed trace that draws every
// instruction class, divides included, so unpipelined units hold for their
// latency; randomTrace stays as it is because the goldens pin its traces.
func everyClassTrace(seed uint64) *trace.Trace {
	rng := xrand.New(seed)
	t := &trace.Trace{ID: trace.ID(seed), Streams: []trace.StreamSpec{{WorkingSet: 4096, Stride: 8}}}
	for i, n := 0, 4+rng.Intn(36); i < n; i++ {
		op := isa.Class(rng.Intn(int(isa.Branch))) // every class but the terminating branch
		in := isa.Inst{Op: op, Src1: isa.Reg(1 + rng.Intn(8)), Src2: isa.Reg(1 + rng.Intn(8)), Dst: isa.Reg(1 + rng.Intn(8))}
		if op == isa.FPAdd || op == isa.FPMul || op == isa.FPDiv {
			in.Src1, in.Src2, in.Dst = in.Src1+isa.NumIntRegs, in.Src2+isa.NumIntRegs, in.Dst+isa.NumIntRegs
		}
		switch op {
		case isa.Store:
			in.Src2, in.Dst = isa.NoReg, isa.NoReg
		case isa.Load:
			in.Src2 = isa.NoReg
		}
		t.Insts = append(t.Insts, in)
	}
	t.Insts = append(t.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: 1})
	return t
}

// FuzzEngineMatchesReference compares random requests over everyClassTrace
// traces field for field against the frozen reference engine, on a fresh
// Engine and on one reused (memo included) across inputs: every policy,
// width, window, probe span, fetch-gate and mispredict pattern.
func FuzzEngineMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed%3), uint8(seed), uint8(seed*5), uint8(seed), uint8(seed*3), uint8(seed*7), uint8(seed))
	}
	reused := NewEngine()
	f.Fuzz(func(t *testing.T, seed uint64, policy, width, window, span, iters, penalty, pattern uint8) {
		tr := everyClassTrace(seed)
		deps := trace.BuildDepGraph(tr)
		n := int(iters%12) + 1
		sp := min(int(span%4)+1, n)
		pol := Policy(policy % 3)
		var order []uint16
		if pol == RecordedOrder {
			order = referenceRun(Request{Trace: tr, Deps: deps, Iterations: 8,
				Policy: Dataflow, Width: 3, Window: 128, ProbeSpan: sp}).IssueOrder
		}
		mk := func() Request {
			req := Request{
				Trace: tr, Deps: deps, Iterations: n, Policy: pol, Order: order, ProbeSpan: sp,
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
		if got := simulate(mk()); !reflect.DeepEqual(got, want) {
			t.Fatalf("fresh engine diverged from reference\n got: %+v\nwant: %+v", got, want)
		}
		if got := reused.Run(mk()); !reflect.DeepEqual(got, want) {
			t.Fatalf("reused engine (memo hit %v) diverged from reference\n got: %+v\nwant: %+v", reused.MemoHit(), got, want)
		}
	})
}
