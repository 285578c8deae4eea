package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/trace"
)

// TestMemoHitMatchesReference runs every random request three times on one
// engine, each time from a fresh factory so stateful callbacks replay the
// same draws. The first sighting stores only a placeholder, the second
// stores the result, and the third must be answered from the memo with the
// reference engine's result, in slices the caller owns.
func TestMemoHitMatchesReference(t *testing.T) {
	e := NewEngine()
	for seed := uint64(1); seed <= 60; seed++ {
		mk := randomRequest(seed*7919 + 5)
		want := referenceRun(mk())
		for i := 0; i < 2; i++ {
			if got := e.Run(mk()); e.MemoHit() || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d run %d: hit=%v, engine diverged from reference\n got: %+v\nwant: %+v",
					seed, i+1, e.MemoHit(), got, want)
			}
		}
		hit := e.Run(mk())
		if !e.MemoHit() {
			t.Fatalf("seed %d: third sighting missed the memo", seed)
		}
		if !reflect.DeepEqual(hit, want) {
			t.Fatalf("seed %d: memoized result diverged from reference\n got: %+v\nwant: %+v", seed, hit, want)
		}
		hit.IterEnd[0]++
		hit.IssueOrder[0]++
		if again := e.Run(mk()); !reflect.DeepEqual(again, want) {
			t.Fatalf("seed %d: mutating a hit's slices changed the memo", seed)
		}
	}
}

// TestMemoKeyCoversEveryInput changes one resolved input at a time. Each
// variant is run until its result is stored; a key that missed an input
// would serve an earlier variant's entry instead of simulating.
func TestMemoKeyCoversEveryInput(t *testing.T) {
	tr := randomTrace(4242)
	deps := trace.BuildDepGraph(tr)
	order := recordedOrderFor(tr, 2)
	identity := make([]uint16, len(order))
	for i := range identity {
		identity[i] = uint16(i)
	}
	base := func() Request {
		return Request{
			Trace: tr, Deps: deps, Iterations: 8, Policy: Dataflow,
			ProbeSpan: 2, Width: 3, Window: 64, MispredictPenalty: 9,
			LoadLatency: func(k int) int { return 2 + 15*(k%3) },
			Mispredicts: func(it int) bool { return it == 2 },
			FetchGate:   func(it int) int { return it % 2 },
		}
	}
	variants := map[string]func(*Request){
		"base":       func(*Request) {},
		"latency":    func(r *Request) { r.LoadLatency = func(k int) int { return 2 + 15*(k%3) + k/20 } },
		"mispredict": func(r *Request) { r.Mispredicts = func(it int) bool { return it == 3 } },
		"gate":       func(r *Request) { r.FetchGate = func(it int) int { return it % 3 } },
		"no-gate":    func(r *Request) { r.FetchGate = nil },
		"zero-gate":  func(r *Request) { r.FetchGate = func(int) int { return 0 } },
		"penalty":    func(r *Request) { r.MispredictPenalty = 10 },
		"width":      func(r *Request) { r.Width = 2 },
		"window":     func(r *Request) { r.Window = 32 },
		"iterations": func(r *Request) { r.Iterations = 9 },
		"span":       func(r *Request) { r.ProbeSpan = 1 },
		"inorder":    func(r *Request) { r.Policy = ProgramOrder },
		"recorded":   func(r *Request) { r.Policy, r.Order = RecordedOrder, order },
		"identity":   func(r *Request) { r.Policy, r.Order = RecordedOrder, identity },
	}
	e := NewEngine()
	for name, change := range variants {
		req := base()
		change(&req)
		want := Run(req)
		for i := 0; i < 3; i++ {
			got := e.Run(req)
			if hit := i == 2; e.MemoHit() != hit {
				t.Errorf("%s run %d: hit=%v, want %v", name, i+1, e.MemoHit(), hit)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s run %d: memoized engine %+v, pooled run %+v", name, i+1, got, want)
			}
		}
	}
	if len(e.memo) != len(variants) {
		t.Errorf("memo holds %d entries for %d distinct requests", len(e.memo), len(variants))
	}
}

// TestMemoComparesInputs plants an entry whose stored inputs differ from
// the request's under the same key, as a hash collision would: the engine
// must simulate rather than serve it.
func TestMemoComparesInputs(t *testing.T) {
	tr := blockedChains(2, 5)
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4,
		Policy: ProgramOrder, Width: isa.IssueWidth,
		LoadLatency: func(int) int { return 3 }, FetchGate: func(int) int { return 1 }}
	e := NewEngine()
	want := e.Run(req)
	e.Run(req)
	for _, ent := range e.memo {
		ent.in[len(ent.in)-1]++
		ent.res.Cycles++
	}
	if got := e.Run(req); e.MemoHit() || !reflect.DeepEqual(got, want) {
		t.Fatalf("entry with different inputs served: hit=%v %+v", e.MemoHit(), got)
	}
}

// TestMemoBounded pins the memo's bound: it never holds more than memoCap
// keys, placeholders included, and a new key finding it full clears it.
func TestMemoBounded(t *testing.T) {
	tr := serialChain(3)
	deps := trace.BuildDepGraph(tr)
	e := NewEngine()
	for i := 0; i <= memoCap; i++ {
		e.Run(Request{Trace: tr, Deps: deps, Iterations: 2, Policy: ProgramOrder,
			Width: isa.IssueWidth, MispredictPenalty: i})
		if len(e.memo) > memoCap {
			t.Fatalf("after %d requests the memo holds %d entries, cap %d", i+1, len(e.memo), memoCap)
		}
	}
	if len(e.memo) != 1 {
		t.Fatalf("request %d should have found the memo full and cleared it; it holds %d", memoCap+1, len(e.memo))
	}
	if memoCap != 1024 {
		t.Fatalf("memoCap is %d; the per-engine memory bound assumes 1024", memoCap)
	}
}

// TestAuditCatchesCorruptMemo plants a corrupted memo entry and requires
// the audited repeat to simulate afresh, flag the entry and return the
// fresh result; an uncorrupted memo audits clean.
func TestAuditCatchesCorruptMemo(t *testing.T) {
	tr := blockedChains(3, 6)
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 6,
		Policy: Dataflow, Width: isa.IssueWidth, Window: isa.ROBSize}
	e := NewEngine()
	want := e.Run(req)
	e.Run(req) // the second sighting stores the result

	clean := invariant.New(nil)
	audited := req
	audited.Audit, audited.AuditLabel = clean, "memo-test"
	if e.Run(audited); e.MemoHit() || clean.Total() != 0 {
		t.Fatalf("audited repeat: hit=%v, violations %v", e.MemoHit(), clean.Err())
	}

	for _, ent := range e.memo {
		ent.res.Cycles++
		ent.res.IterEnd[len(ent.res.IterEnd)-1]++
	}
	aud := invariant.New(nil)
	audited.Audit = aud
	got := e.Run(audited)
	if !violated(aud, "pipeline.memo") {
		t.Fatalf("corrupted memo entry undetected: %v", aud.Err())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("audited run returned %+v, want the fresh %+v", got, want)
	}
	if again := e.Run(req); !e.MemoHit() || !reflect.DeepEqual(again, want) {
		t.Fatalf("the audited run should have replaced the corrupted entry: hit=%v %+v", e.MemoHit(), again)
	}
}
