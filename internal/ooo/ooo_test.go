package ooo

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// parallelTrace builds blocked independent mul chains plus a branch.
func parallelTrace(id trace.ID) *trace.Trace {
	t := &trace.Trace{ID: id, Stability: 0.95}
	for c := 0; c < 4; c++ {
		r := isa.Reg(1 + c)
		for k := 0; k < 8; k++ {
			t.Insts = append(t.Insts, isa.Inst{Op: isa.IntMul, Dst: r, Src1: r})
		}
	}
	t.Insts = append(t.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: 1})
	return t
}

func newCore(seed string) *Core {
	return New(mem.NewHierarchy(), xrand.NewString(seed))
}

func TestMeasureTraceBasics(t *testing.T) {
	tr := parallelTrace(100)
	c := newCore("mt")
	r := c.MeasureTrace(tr, trace.BuildDepGraph(tr), nil, 12)
	if r.CyclesPerIter <= 0 {
		t.Fatal("no cycles measured")
	}
	if r.IPC <= 0 || r.IPC > float64(isa.IssueWidth) {
		t.Errorf("IPC %v out of range", r.IPC)
	}
	if r.Events.Cycles == 0 || r.Events.MulDivOps == 0 {
		t.Errorf("events not counted: %+v", r.Events)
	}
}

func TestScheduleValidAndSpanned(t *testing.T) {
	tr := parallelTrace(101)
	c := newCore("sched")
	s := c.Measure(tr, trace.BuildDepGraph(tr), nil, 12).Recording.Schedule()
	if s.Span != ScheduleSpan {
		t.Errorf("schedule span %d, want %d", s.Span, ScheduleSpan)
	}
	if err := s.Validate(len(tr.Insts)); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if s.ReorderedInsts == 0 {
		t.Error("blocked chains should be reordered by the OoO")
	}
	// MemOrder lists every memory op of the block in program order; this
	// trace has none.
	if len(s.MemOrder) != 0 {
		t.Errorf("MemOrder has %d entries for a memory-free trace", len(s.MemOrder))
	}
}

func TestMemOrderCoversBlockMemOps(t *testing.T) {
	tr := &trace.Trace{ID: 102, Stability: 0.9,
		Streams: []trace.StreamSpec{{WorkingSet: 4096, Stride: 8}},
		Insts: []isa.Inst{
			{Op: isa.Load, Dst: 1, Src1: isa.NoReg, MemStream: 0},
			{Op: isa.IntALU, Dst: 2, Src1: 1},
			{Op: isa.Store, Dst: isa.NoReg, Src1: 2, Src2: 1, MemStream: 0},
			{Op: isa.Branch, Dst: isa.NoReg, Src1: 2},
		}}
	c := newCore("memorder")
	ws := []*mem.Walker{mem.NewWalker(tr.Streams[0], xrand.New(5))}
	s := c.Measure(tr, trace.BuildDepGraph(tr), ws, 12).Recording.Schedule()
	if want := 2 * ScheduleSpan; len(s.MemOrder) != want {
		t.Errorf("MemOrder has %d entries, want %d (2 mem ops x span)", len(s.MemOrder), want)
	}
}

// extractSchedule is the eager schedule builder Measure replaced, kept as
// the oracle for Recording.Schedule: every OoO measurement used to build
// the whole schedule, replay metadata included, from the pipeline result.
func extractSchedule(t *trace.Trace, res *pipeline.Result) *trace.Schedule {
	order := make([]uint16, len(res.IssueOrder))
	copy(order, res.IssueOrder)
	s := &trace.Schedule{
		TraceID:        t.ID,
		Span:           len(order) / len(t.Insts),
		Order:          order,
		ReorderedInsts: res.Reordered,
		MaxVersions:    pipeline.MaxLiveVersions(t, order),
	}
	pos := make([]uint16, len(order))
	for k, bp := range order {
		pos[bp] = uint16(k)
	}
	for bp := 0; bp < len(order); bp++ {
		if t.Insts[bp%len(t.Insts)].Op.IsMem() {
			s.MemOrder = append(s.MemOrder, pos[bp])
		}
	}
	return s
}

func suiteWalkers(tr *trace.Trace, seed string) []*mem.Walker {
	ws := make([]*mem.Walker, len(tr.Streams))
	for i, st := range tr.Streams {
		ws[i] = mem.NewWalker(st, xrand.NewString(fmt.Sprintf("%s:%d", seed, i)))
	}
	return ws
}

// TestScheduleOnDemandMatchesEager builds each suite loop trace's schedule
// from a Measure recording and checks it field by field against the eager
// oracle run on a twin core: same seeds, same walkers, same pipeline
// request, after a warm-up measurement on each.
func TestScheduleOnDemandMatchesEager(t *testing.T) {
	n := 0
	for _, b := range program.Suite() {
		for pi, ph := range b.Phases {
			for li, l := range ph.Loops {
				seed := fmt.Sprintf("%s/%d/%d", b.Name, pi, li)
				lazy, eager := newCore(seed), newCore(seed)
				lws, ews := suiteWalkers(l.Trace, seed), suiteWalkers(l.Trace, seed)
				lazy.Measure(l.Trace, l.Deps, lws, 20)
				eager.simulate(l.Trace, l.Deps, ews, 20)
				m := lazy.Measure(l.Trace, l.Deps, lws, 10)
				res, _, _ := eager.simulate(l.Trace, l.Deps, ews, 10)
				want := extractSchedule(l.Trace, &res)
				want.RecordedCycles = int(res.SteadyCyclesPerIter() + 0.5)
				got := m.Recording.Schedule()
				where := fmt.Sprintf("%s phase %d loop %d (trace %d)", b.Name, pi, li, l.Trace.ID)
				switch {
				case got.TraceID != want.TraceID:
					t.Errorf("%s: TraceID %d, oracle %d", where, got.TraceID, want.TraceID)
				case got.Span != want.Span:
					t.Errorf("%s: Span %d, oracle %d", where, got.Span, want.Span)
				case !slices.Equal(got.Order, want.Order):
					t.Errorf("%s: Order differs from the oracle's", where)
				case !slices.Equal(got.MemOrder, want.MemOrder):
					t.Errorf("%s: MemOrder %v, oracle %v", where, got.MemOrder, want.MemOrder)
				case got.RecordedCycles != want.RecordedCycles:
					t.Errorf("%s: RecordedCycles %d, oracle %d", where, got.RecordedCycles, want.RecordedCycles)
				case got.ReorderedInsts != want.ReorderedInsts:
					t.Errorf("%s: ReorderedInsts %d, oracle %d", where, got.ReorderedInsts, want.ReorderedInsts)
				case got.MaxVersions != want.MaxVersions:
					t.Errorf("%s: MaxVersions %d, oracle %d", where, got.MaxVersions, want.MaxVersions)
				case got.Replayable() != want.Replayable():
					t.Errorf("%s: Replayable %v, oracle %v", where, got.Replayable(), want.Replayable())
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("the suite has no loop traces")
	}
}

func TestRecorderConfidence(t *testing.T) {
	rec := NewRecorder(xrand.New(1))
	tr := parallelTrace(103)
	tr.Stability = 1.0 // always matches
	s := &trace.Schedule{TraceID: tr.ID, Span: 1, Order: make([]uint16, len(tr.Insts)),
		MaxVersions: 1}
	for i := range s.Order {
		s.Order[i] = uint16(i)
	}
	fired := -1
	for i := 0; i < 10; i++ {
		if rec.Observe(tr, s, 20) {
			fired = i
			break
		}
	}
	// First call creates the entry; the threshold counts consecutive
	// matches after it.
	if fired != rec.ConfidenceThreshold {
		t.Errorf("recorder fired at observation %d, want %d", fired, rec.ConfidenceThreshold)
	}
	// It must not fire again for the same trace.
	for i := 0; i < 5; i++ {
		if rec.Observe(tr, s, 20) {
			t.Error("recorder re-fired for an already-confident trace")
		}
	}
}

func TestRecorderRejectsUnstable(t *testing.T) {
	rec := NewRecorder(xrand.New(2))
	tr := parallelTrace(104)
	tr.Stability = 0.0 // schedule never repeats
	s := &trace.Schedule{TraceID: tr.ID, Span: 1, Order: make([]uint16, len(tr.Insts)), MaxVersions: 1}
	for i := range s.Order {
		s.Order[i] = uint16(i)
	}
	for i := 0; i < 50; i++ {
		if rec.Observe(tr, s, 20) {
			t.Fatal("unstable trace memoized")
		}
	}
}

func TestRecorderRejectsMisspeculators(t *testing.T) {
	rec := NewRecorder(xrand.New(3))
	s := &trace.Schedule{TraceID: 105, Span: 1, Order: make([]uint16, 33), MaxVersions: 1}
	for i := range s.Order {
		s.Order[i] = uint16(i)
	}
	alias := parallelTrace(105)
	alias.Stability = 1
	alias.AliasRate = 0.5
	for i := 0; i < 10; i++ {
		if rec.Observe(alias, s, 20) {
			t.Fatal("high-alias trace memoized")
		}
	}
	if !rec.Unmemoizable(alias.ID) {
		t.Error("high-alias trace not marked unmemoizable")
	}

	misp := parallelTrace(106)
	misp.Stability = 1
	misp.MispredictRate = 0.5
	for i := 0; i < 10; i++ {
		if rec.Observe(misp, s, 20) {
			t.Fatal("high-mispredict trace memoized")
		}
	}
}

func TestRecorderRejectsNonReplayable(t *testing.T) {
	rec := NewRecorder(xrand.New(4))
	tr := parallelTrace(107)
	tr.Stability = 1
	s := &trace.Schedule{TraceID: tr.ID, Span: 1, Order: make([]uint16, len(tr.Insts)),
		MaxVersions: isa.OinOMaxVersions + 3}
	for i := 0; i < 10; i++ {
		if rec.Observe(tr, s, 20) {
			t.Fatal("version-limited schedule memoized")
		}
	}
}

func TestRecorderMetricMismatchResets(t *testing.T) {
	rec := NewRecorder(xrand.New(5))
	tr := parallelTrace(108)
	tr.Stability = 1
	s := &trace.Schedule{TraceID: tr.ID, Span: 1, Order: make([]uint16, len(tr.Insts)), MaxVersions: 1}
	for i := range s.Order {
		s.Order[i] = uint16(i)
	}
	rec.Observe(tr, s, 20)
	rec.Observe(tr, s, 20)
	rec.Observe(tr, s, 60) // wildly different cycles: confidence resets
	for i := 0; i < rec.ConfidenceThreshold-1; i++ {
		if rec.Observe(tr, s, 60) {
			t.Fatal("fired before rebuilt confidence")
		}
	}
	if !rec.Observe(tr, s, 60) {
		t.Error("did not fire after confidence was rebuilt")
	}
}

func TestRecorderTableEviction(t *testing.T) {
	rec := NewRecorder(xrand.New(6))
	rec.TableEntries = 4
	s := &trace.Schedule{Span: 1, Order: make([]uint16, 33), MaxVersions: 1}
	for id := trace.ID(0); id < 10; id++ {
		tr := parallelTrace(id)
		rec.Observe(tr, s, 20)
	}
	if got := len(rec.entries); got > 4 {
		t.Errorf("table holds %d entries, capacity 4", got)
	}
}

func TestRecorderReset(t *testing.T) {
	rec := NewRecorder(xrand.New(7))
	tr := parallelTrace(109)
	s := &trace.Schedule{TraceID: tr.ID, Span: 1, Order: make([]uint16, len(tr.Insts)), MaxVersions: 1}
	rec.Observe(tr, s, 20)
	rec.Reset()
	if len(rec.entries) != 0 || len(rec.order) != 0 {
		t.Error("reset left table entries")
	}
}

func TestMetricsMatch(t *testing.T) {
	cases := []struct {
		a, b int
		want bool
	}{
		{20, 20, true},
		{20, 22, true},   // within 2 cycles
		{100, 104, true}, // within 5%
		{100, 120, false},
		{10, 30, false},
	}
	for _, c := range cases {
		if got := metricsMatch(c.a, c.b); got != c.want {
			t.Errorf("metricsMatch(%d, %d) = %v", c.a, c.b, got)
		}
	}
}

func TestDeterministicMeasurement(t *testing.T) {
	tr := parallelTrace(110)
	g := trace.BuildDepGraph(tr)
	r1 := newCore("det").MeasureTrace(tr, g, nil, 12)
	r2 := newCore("det").MeasureTrace(tr, g, nil, 12)
	if r1.CyclesPerIter != r2.CyclesPerIter {
		t.Errorf("measurement not deterministic: %v vs %v", r1.CyclesPerIter, r2.CyclesPerIter)
	}
}
