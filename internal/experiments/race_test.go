package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestProfileConcurrent is the regression test for the profileCache data
// race: before the cache became a runner.Cache, eight goroutines profiling
// the same benchmark concurrently raced on a bare package-global map (caught
// by `go test -race`). Beyond race-cleanliness it asserts the singleflight
// contract: every caller sees the same *benchProfile.
func TestProfileConcurrent(t *testing.T) {
	s := tinyScale
	s.Name = "tiny-race" // private cache key: other tests must not pre-seed it
	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]*benchProfile, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g], errs[g] = profile(context.Background(), s, "hmmer")
		}()
	}
	close(start)
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] == nil || got[g] != got[0] {
			t.Fatalf("goroutine %d got a different profile pointer: singleflight broken", g)
		}
	}
	if got[0].name != "hmmer" || got[0].ipcOoO <= 0 {
		t.Fatalf("profile looks empty: %+v", got[0])
	}
	// A recompute under a fresh cache key must agree exactly — profiling is
	// deterministic regardless of who computed it first. (The key embeds the
	// scale name, so renaming forces a recompute without evicting entries
	// other tests rely on.)
	s2 := s
	s2.Name = "tiny-race-2"
	again, err := profile(context.Background(), s2, "hmmer")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*again, *got[0]) {
		t.Fatalf("recomputed profile differs:\nfirst:  %+v\nsecond: %+v", *got[0], *again)
	}
}

// TestResetCachesDropsPipelineMemo: ResetCaches also empties the
// process-wide pipeline memo, so a determinism test's second pass simulates
// instead of replaying the first pass's pipeline results.
func TestResetCachesDropsPipelineMemo(t *testing.T) {
	tr := &trace.Trace{ID: 1, Insts: []isa.Inst{
		{Op: isa.IntMul, Dst: 1, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	req := pipeline.Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4, Policy: pipeline.ProgramOrder}
	e := pipeline.NewEngine()
	for i := 0; i < 3; i++ {
		e.Run(req)
	}
	if !e.MemoHit() {
		t.Fatal("the third sighting of a request missed the pipeline memo")
	}
	ResetCaches()
	if e.Run(req); e.MemoHit() {
		t.Fatal("a request repeated after ResetCaches was answered from the pipeline memo")
	}
}
