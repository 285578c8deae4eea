package trace

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// chainTrace builds: r1 = r1 + r2 ; r2 = load[r1] ; r3 = r2 * r2 ; branch r3
func chainTrace() *Trace {
	return &Trace{
		ID: 1,
		Insts: []isa.Inst{
			{Op: isa.IntALU, Dst: 1, Src1: 1, Src2: 2},
			{Op: isa.Load, Dst: 2, Src1: 1, MemStream: 0},
			{Op: isa.IntMul, Dst: 3, Src1: 2, Src2: 2},
			{Op: isa.Branch, Dst: isa.NoReg, Src1: 3},
		},
		Streams:   []StreamSpec{{WorkingSet: 1024, Stride: 8}},
		Stability: 0.9,
	}
}

func TestBuildDepGraphRAW(t *testing.T) {
	g := BuildDepGraph(chainTrace())
	if len(g.Preds[0]) != 0 {
		t.Errorf("inst 0 reads r1,r2 before any writes; preds = %v", g.Preds[0])
	}
	if len(g.Preds[1]) != 1 || g.Preds[1][0] != 0 {
		t.Errorf("load depends on inst 0 via r1; got %v", g.Preds[1])
	}
	if len(g.Preds[2]) != 2 || g.Preds[2][0] != 1 || g.Preds[2][1] != 1 {
		t.Errorf("mul reads r2 twice from the load; got %v", g.Preds[2])
	}
	if len(g.Preds[3]) != 1 || g.Preds[3][0] != 2 {
		t.Errorf("branch depends on mul; got %v", g.Preds[3])
	}
}

func TestBuildDepGraphCarried(t *testing.T) {
	g := BuildDepGraph(chainTrace())
	// Inst 0 reads r1 (written by inst 0) and r2 (written by inst 1) before
	// either write in the same iteration, so it carries dependences on both
	// producers from the previous iteration.
	has := map[int]bool{}
	for _, p := range g.CarriedPreds[0] {
		has[p] = true
	}
	if !has[0] || !has[1] {
		t.Errorf("inst 0 should carry-depend on prior iteration's insts 0 and 1; got %v", g.CarriedPreds[0])
	}
	if g.LastWriter[1] != 0 || g.LastWriter[2] != 1 || g.LastWriter[3] != 2 {
		t.Errorf("last writers wrong: %v %v %v", g.LastWriter[1], g.LastWriter[2], g.LastWriter[3])
	}
}

func TestBuildDepGraphPredsPrecede(t *testing.T) {
	// Property: every in-iteration predecessor index is strictly smaller.
	tr := chainTrace()
	g := BuildDepGraph(tr)
	for j, preds := range g.Preds {
		for _, p := range preds {
			if p >= j {
				t.Errorf("pred %d of inst %d does not precede it", p, j)
			}
		}
	}
}

func TestNumMemOps(t *testing.T) {
	tr := chainTrace()
	loads, stores := tr.NumMemOps()
	if loads != 1 || stores != 0 {
		t.Errorf("got %d loads %d stores, want 1/0", loads, stores)
	}
}

// TestClassCountsConcurrent: goroutines racing to build a fresh trace's
// tally all read the same counts, one per instruction.
func TestClassCountsConcurrent(t *testing.T) {
	tr := chainTrace()
	want := [isa.NumClasses]int{isa.IntALU: 1, isa.Load: 1, isa.IntMul: 1, isa.Branch: 1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := tr.ClassCounts(); got != want {
				t.Errorf("class counts %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestValidate(t *testing.T) {
	if err := chainTrace().Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := chainTrace()
	bad.Insts = nil
	if bad.Validate() == nil {
		t.Error("empty trace accepted")
	}
	bad = chainTrace()
	bad.Insts[1].MemStream = 9
	if bad.Validate() == nil {
		t.Error("out-of-range stream accepted")
	}
	bad = chainTrace()
	bad.MispredictRate = 1.5
	if bad.Validate() == nil {
		t.Error("mispredict rate > 1 accepted")
	}
	bad = chainTrace()
	bad.Insts[0].Src1 = 200
	if bad.Validate() == nil {
		t.Error("invalid source register accepted")
	}
}

func TestScheduleValidate(t *testing.T) {
	s := &Schedule{TraceID: 1, Span: 1, Order: []uint16{0, 2, 1, 3}}
	if err := s.Validate(4); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	dup := &Schedule{TraceID: 1, Span: 1, Order: []uint16{0, 0, 1, 3}}
	if dup.Validate(4) == nil {
		t.Error("duplicate position accepted")
	}
	short := &Schedule{TraceID: 1, Span: 1, Order: []uint16{0, 1}}
	if short.Validate(4) == nil {
		t.Error("short order accepted")
	}
	span2 := &Schedule{TraceID: 1, Span: 2, Order: []uint16{0, 4, 1, 5, 2, 6, 3, 7}}
	if err := span2.Validate(4); err != nil {
		t.Errorf("valid span-2 schedule rejected: %v", err)
	}
	oob := &Schedule{TraceID: 1, Span: 1, Order: []uint16{0, 1, 2, 9}}
	if oob.Validate(4) == nil {
		t.Error("out-of-range position accepted")
	}
}

func TestScheduleSizeBytes(t *testing.T) {
	s := &Schedule{Order: make([]uint16, 50)}
	if got := s.SizeBytes(); got != 50*isa.InstBytes+MetadataBytes {
		t.Errorf("size %d", got)
	}
}

func TestReplayableLimits(t *testing.T) {
	ok := &Schedule{Span: 1, MaxVersions: isa.OinOMaxVersions, MemOrder: make([]uint16, isa.OinOLSQSize)}
	if !ok.Replayable() {
		t.Error("schedule at hardware limits should replay")
	}
	manyV := &Schedule{Span: 1, MaxVersions: isa.OinOMaxVersions + 1}
	if manyV.Replayable() {
		t.Error("schedule over PRF version limit accepted")
	}
	manyM := &Schedule{Span: 1, MemOrder: make([]uint16, isa.OinOLSQSize+1)}
	if manyM.Replayable() {
		t.Error("schedule over LSQ capacity accepted")
	}
	// The LSQ drains per iteration: a span-2 schedule may hold 2x the
	// per-iteration bound.
	span2 := &Schedule{Span: 2, MemOrder: make([]uint16, 2*isa.OinOLSQSize)}
	if !span2.Replayable() {
		t.Error("span-2 schedule within per-iteration LSQ bound rejected")
	}
}

func TestDepGraphDeterministic(t *testing.T) {
	// Property: building the graph twice yields identical structure.
	err := quick.Check(func(seed uint8) bool {
		tr := chainTrace()
		tr.ID = ID(seed)
		a, b := BuildDepGraph(tr), BuildDepGraph(tr)
		for j := range a.Preds {
			if len(a.Preds[j]) != len(b.Preds[j]) {
				return false
			}
			for k := range a.Preds[j] {
				if a.Preds[j][k] != b.Preds[j][k] {
					return false
				}
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
