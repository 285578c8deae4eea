package ino

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// blockedTrace: independent mul chains laid out contiguously — the case
// where in-order issue loses badly and schedule replay wins it back.
func blockedTrace(id trace.ID) *trace.Trace {
	t := &trace.Trace{ID: id, Stability: 0.95}
	for c := 0; c < 4; c++ {
		r := isa.Reg(1 + 4*c)
		for k := 0; k < 8; k++ {
			t.Insts = append(t.Insts, isa.Inst{Op: isa.IntMul, Dst: r + isa.Reg(k%4), Src1: r + isa.Reg((k+3)%4)})
		}
	}
	t.Insts = append(t.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: 1})
	return t
}

func cores(seed string) (*ooo.Core, *Core) {
	h := mem.NewHierarchy()
	return ooo.New(h, xrand.NewString(seed+"-o")), New(h, xrand.NewString(seed+"-i"))
}

func TestInOSlowerThanOoO(t *testing.T) {
	tr := blockedTrace(200)
	g := trace.BuildDepGraph(tr)
	co, ci := cores("slow")
	ro := co.MeasureTrace(tr, g, nil, 12)
	ri := ci.MeasureTrace(tr, g, nil, 12)
	if ri.CyclesPerIter <= ro.CyclesPerIter {
		t.Errorf("in-order (%v cyc/iter) should be slower than OoO (%v)", ri.CyclesPerIter, ro.CyclesPerIter)
	}
}

func TestReplayRecoversOoOPerformance(t *testing.T) {
	tr := blockedTrace(201)
	g := trace.BuildDepGraph(tr)
	co, ci := cores("replay")
	ro := co.MeasureTrace(tr, g, nil, 12)
	if !ro.Schedule.Replayable() {
		t.Fatalf("test schedule not replayable: versions=%d mem=%d",
			ro.Schedule.MaxVersions, len(ro.Schedule.MemOrder))
	}
	rr := ci.MeasureReplay(tr, g, ro.Schedule, nil, 12)
	ri := ci.MeasureTrace(tr, g, nil, 12)
	if rr.CyclesPerIter >= ri.CyclesPerIter {
		t.Errorf("replay (%v) should beat plain in-order (%v)", rr.CyclesPerIter, ri.CyclesPerIter)
	}
	rel := ro.CyclesPerIter / rr.CyclesPerIter
	if rel < 0.6 {
		t.Errorf("replay reaches only %.2f of OoO on an ideal trace", rel)
	}
}

func TestReplayFallsBackWhenNotReplayable(t *testing.T) {
	tr := blockedTrace(202)
	g := trace.BuildDepGraph(tr)
	_, ci := cores("fallback")
	bad := &trace.Schedule{TraceID: tr.ID, Span: 1,
		Order: make([]uint16, len(tr.Insts)), MaxVersions: isa.OinOMaxVersions + 1}
	ri := ci.MeasureTrace(tr, g, nil, 12)
	rr := ci.MeasureReplay(tr, g, bad, nil, 12)
	if diff := rr.CyclesPerIter - ri.CyclesPerIter; diff < -1 || diff > 1 {
		t.Errorf("non-replayable schedule should fall back to in-order: %v vs %v",
			rr.CyclesPerIter, ri.CyclesPerIter)
	}
}

func TestAliasSquashPenalty(t *testing.T) {
	tr := blockedTrace(203)
	g := trace.BuildDepGraph(tr)
	co, ci := cores("squash")
	ro := co.MeasureTrace(tr, g, nil, 12)

	clean := ci.MeasureReplay(tr, g, ro.Schedule, nil, 12)
	tr.AliasRate = 0.3
	dirty := ci.MeasureReplay(tr, g, ro.Schedule, nil, 12)
	if dirty.CyclesPerIter <= clean.CyclesPerIter {
		t.Errorf("30%% alias squashes (%v cyc/iter) should cost over clean replay (%v)",
			dirty.CyclesPerIter, clean.CyclesPerIter)
	}
	if dirty.SquashRate < 0.25 || dirty.SquashRate > 0.35 {
		t.Errorf("squash rate %v, want ~0.3", dirty.SquashRate)
	}
	if dirty.Events.Squashes == 0 {
		t.Error("squash events not counted")
	}
}

func TestMispredictSlowsReplayWithoutSquash(t *testing.T) {
	tr := blockedTrace(204)
	g := trace.BuildDepGraph(tr)
	co, ci := cores("misp")
	ro := co.MeasureTrace(tr, g, nil, 12)
	clean := ci.MeasureReplay(tr, g, ro.Schedule, nil, 24)
	tr.MispredictRate = 0.5
	missed := ci.MeasureReplay(tr, g, ro.Schedule, nil, 24)
	if missed.CyclesPerIter <= clean.CyclesPerIter {
		t.Errorf("mispredicting loop exits should add redirect stalls: %v vs %v",
			missed.CyclesPerIter, clean.CyclesPerIter)
	}
	if missed.SquashRate != 0 {
		t.Errorf("branch redirects must not count as atomic-trace squashes (rate %v)", missed.SquashRate)
	}
}

func TestOinOEnergyEvents(t *testing.T) {
	tr := blockedTrace(205)
	g := trace.BuildDepGraph(tr)
	co, ci := cores("energy")
	ro := co.MeasureTrace(tr, g, nil, 12)
	rr := ci.MeasureReplay(tr, g, ro.Schedule, nil, 12)
	ri := ci.MeasureTrace(tr, g, nil, 12)
	if rr.Events.SCFetches == 0 {
		t.Error("OinO mode must fetch from the SC")
	}
	if ri.Events.SCFetches != 0 {
		t.Error("plain InO mode must not fetch from the SC")
	}
	if rr.Events.L1IAccess >= ri.Events.L1IAccess {
		t.Error("OinO mode should cut L1I accesses (trace blocks come from the SC)")
	}
	if rr.Events.BPredLookups >= ri.Events.BPredLookups {
		t.Error("OinO mode should cut branch predictor lookups")
	}
}

func TestLoadLatencyUsesWalkers(t *testing.T) {
	tr := &trace.Trace{ID: 206, Stability: 0.9,
		Streams: []trace.StreamSpec{{Kind: trace.StreamRandom, Base: 0, WorkingSet: 8 << 20}},
		Insts: []isa.Inst{
			{Op: isa.Load, Dst: 1, Src1: isa.NoReg, MemStream: 0},
			{Op: isa.IntALU, Dst: 2, Src1: 1},
			{Op: isa.Branch, Dst: isa.NoReg, Src1: 2},
		}}
	g := trace.BuildDepGraph(tr)
	_, ci := cores("walkers")
	// Without walkers every load is an L1 hit; with a huge random working
	// set, most loads miss.
	fast := ci.MeasureTrace(tr, g, nil, 12)
	ws := []*mem.Walker{mem.NewWalker(tr.Streams[0], xrand.New(8))}
	slow := ci.MeasureTrace(tr, g, ws, 12)
	if slow.CyclesPerIter <= fast.CyclesPerIter+10 {
		t.Errorf("memory-bound trace (%v cyc/iter) should be far slower than L1-hit (%v)",
			slow.CyclesPerIter, fast.CyclesPerIter)
	}
}

// TestMeasureTraceAllocs: a memo-hit in-order measurement allocates
// nothing; the request's callbacks are bound once per core.
func TestMeasureTraceAllocs(t *testing.T) {
	tr := blockedTrace(220)
	g := trace.BuildDepGraph(tr)
	_, c := cores("allocs")
	for i := 0; i < 3; i++ { // the second sighting stores the result
		c.MeasureTrace(tr, g, nil, 12)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if c.MeasureTrace(tr, g, nil, 12); !c.eng.MemoHit() {
			t.Fatal("a repeated measurement missed the memo")
		}
	})
	if allocs != 0 {
		t.Errorf("a memo hit allocates %.0f/op, want 0", allocs)
	}
}
