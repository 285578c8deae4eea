package memo_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// TestMemoIdleRelease advances the idle clock instead of sleeping: a hit
// counts as use, the memos survive less than the idle delay without a
// memoized Run, both the pipeline memo and the walk memo are dropped after
// it, and the next Run re-arms the timer.
func TestMemoIdleRelease(t *testing.T) {
	memo.Reset()
	tr := &trace.Trace{ID: 7, Streams: []trace.StreamSpec{{WorkingSet: 1 << 16, Stride: 64}}, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1, MemStream: 0},
		{Op: isa.IntMul, Dst: 2, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 2},
	}}
	// Walks of fresh hierarchies with fresh walkers repeat one history: a
	// first sighting, then a recording.
	walk := func() {
		h := mem.NewHierarchy()
		h.LoadLatencies(tr, []*mem.Walker{mem.NewWalker(tr.Streams[0], xrand.New(1))}, 4)
		h.Release()
	}
	walk()
	walk()
	req := pipeline.Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4, Policy: pipeline.ProgramOrder}
	e := pipeline.NewEngine()
	e.Run(req)
	e.Run(req)
	if !memo.Armed() {
		t.Fatal("a memoized Run left the idle timer unarmed")
	}
	if mem.WalkMemoStats().Entries == 0 {
		t.Fatal("a repeated walk recorded nothing in the walk memo")
	}

	memo.Skew.Add(int64(memo.IdleDelay * 3 / 5))
	if e.Run(req); !e.MemoHit() {
		t.Fatal("the third sighting missed the memo")
	}
	memo.Skew.Add(int64(memo.IdleDelay * 3 / 5))
	memo.ReleaseIdle()
	if n, _ := pipeline.MemoStats(); n == 0 || mem.WalkMemoStats().Entries == 0 {
		t.Fatalf("the memos were released %v after their last hit", memo.IdleDelay*3/5)
	}

	memo.Skew.Add(int64(memo.IdleDelay))
	memo.ReleaseIdle()
	if n, _ := pipeline.MemoStats(); n != 0 || memo.Armed() {
		t.Fatalf("after the idle delay: %d entries, armed=%v; want released and disarmed", n, memo.Armed())
	}
	if n := mem.WalkMemoStats().Entries; n != 0 {
		t.Fatalf("after the idle delay the walk memo holds %d entries", n)
	}
	if e.Run(req); e.MemoHit() || !memo.Armed() {
		t.Fatalf("first Run after the release: hit=%v armed=%v; want a miss that re-arms", e.MemoHit(), memo.Armed())
	}
}
