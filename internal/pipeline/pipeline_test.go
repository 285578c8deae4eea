package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// blockedChains builds a trace of `chains` independent ALU chains of length
// `per`, laid out chain-by-chain (only dynamic reordering can interleave).
func blockedChains(chains, per int) *trace.Trace {
	t := &trace.Trace{ID: 10}
	for c := 0; c < chains; c++ {
		r := isa.Reg(1 + c)
		for k := 0; k < per; k++ {
			t.Insts = append(t.Insts, isa.Inst{Op: isa.IntMul, Dst: r, Src1: r})
		}
	}
	t.Insts = append(t.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: 1})
	return t
}

// serialChain is one long dependent chain; no machine can speed it up.
func serialChain(n int) *trace.Trace {
	t := &trace.Trace{ID: 11}
	for k := 0; k < n; k++ {
		t.Insts = append(t.Insts, isa.Inst{Op: isa.IntALU, Dst: 1, Src1: 1})
	}
	t.Insts = append(t.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: 1})
	return t
}

// simulate runs req on a fresh Engine with the result memo bypassed, so
// the Result owns its slices and no test is answered from an entry another
// test stored.
func simulate(req Request) Result { return NewEngine().run(req, false) }

func run(t *trace.Trace, pol Policy, iters int) Result {
	return simulate(Request{
		Trace:      t,
		Deps:       trace.BuildDepGraph(t),
		Iterations: iters,
		Policy:     pol,
		Width:      isa.IssueWidth,
		Window:     isa.ROBSize,
	})
}

func TestDataflowBeatsInOrderOnBlockedChains(t *testing.T) {
	tr := blockedChains(4, 10)
	df := run(tr, Dataflow, 6)
	io := run(tr, ProgramOrder, 6)
	if df.Cycles >= io.Cycles {
		t.Errorf("dataflow %d cycles should beat in-order %d on blocked chains", df.Cycles, io.Cycles)
	}
	// 4 chains of 10 muls: in-order serializes each chain (latency 3 per
	// link); dataflow interleaves them.
	if ratio := float64(io.Cycles) / float64(df.Cycles); ratio < 1.5 {
		t.Errorf("speedup only %.2fx on highly parallel blocked code", ratio)
	}
}

func TestSerialChainEqualEverywhere(t *testing.T) {
	tr := serialChain(30)
	df := run(tr, Dataflow, 4)
	io := run(tr, ProgramOrder, 4)
	// Within a few cycles (pipeline ramp effects): nobody beats a serial
	// dependence chain.
	diff := df.Cycles - io.Cycles
	if diff < -3 || diff > 3 {
		t.Errorf("serial chain: dataflow %d vs in-order %d", df.Cycles, io.Cycles)
	}
}

func TestIssueOrderIsValidPermutation(t *testing.T) {
	tr := blockedChains(3, 8)
	res := simulate(Request{
		Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 8,
		Policy: Dataflow, Width: 3, Window: 128, ProbeSpan: 2,
	})
	if len(res.IssueOrder) != 2*len(tr.Insts) {
		t.Fatalf("probe order covers %d positions, want %d", len(res.IssueOrder), 2*len(tr.Insts))
	}
	seen := make([]bool, len(res.IssueOrder))
	for _, p := range res.IssueOrder {
		if int(p) >= len(seen) || seen[p] {
			t.Fatalf("probe order is not a permutation at %d", p)
		}
		seen[p] = true
	}
}

func TestDataflowReordersBlockedCode(t *testing.T) {
	tr := blockedChains(4, 8)
	res := run(tr, Dataflow, 6)
	if res.Reordered == 0 {
		t.Error("dataflow issue of blocked chains should reorder instructions")
	}
	io := run(tr, ProgramOrder, 6)
	if io.Reordered != 0 {
		t.Errorf("program-order issue reordered %d instructions", io.Reordered)
	}
}

func TestRecordedOrderMatchesDataflowShape(t *testing.T) {
	tr := blockedChains(4, 10)
	df := simulate(Request{
		Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 8,
		Policy: Dataflow, Width: 3, Window: 128, ProbeSpan: 2,
	})
	re := simulate(Request{
		Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 8,
		Policy: RecordedOrder, Order: df.IssueOrder, ProbeSpan: 2, Width: 3,
	})
	io := run(tr, ProgramOrder, 8)
	if re.Cycles >= io.Cycles {
		t.Errorf("replay (%d cycles) should beat program order (%d)", re.Cycles, io.Cycles)
	}
	if re.Cycles < df.Cycles {
		t.Errorf("replay (%d cycles) cannot beat the dataflow machine (%d)", re.Cycles, df.Cycles)
	}
}

func TestWindowLimitsOverlap(t *testing.T) {
	tr := blockedChains(6, 10)
	wide := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 6,
		Policy: Dataflow, Width: 3, Window: 128})
	narrow := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 6,
		Policy: Dataflow, Width: 3, Window: 8})
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("ROB 8 (%d cycles) should be slower than ROB 128 (%d)", narrow.Cycles, wide.Cycles)
	}
}

func TestMispredictPenaltyCharged(t *testing.T) {
	tr := serialChain(10)
	base := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 8,
		Policy: ProgramOrder, Width: 3, MispredictPenalty: 8})
	missed := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 8,
		Policy: ProgramOrder, Width: 3, MispredictPenalty: 8,
		Mispredicts: func(int) bool { return true }})
	if missed.Cycles <= base.Cycles {
		t.Errorf("mispredicting every iteration (%d) should cost over baseline (%d)",
			missed.Cycles, base.Cycles)
	}
}

func TestLoadLatencyPropagates(t *testing.T) {
	tr := &trace.Trace{ID: 12, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: isa.NoReg},
		{Op: isa.IntALU, Dst: 2, Src1: 1}, // consumer stalls on the load
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 2},
	}}
	fast := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4,
		Policy: ProgramOrder, Width: 3, LoadLatency: func(int) int { return 2 }})
	slow := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4,
		Policy: ProgramOrder, Width: 3, LoadLatency: func(int) int { return 120 }})
	if slow.Cycles < fast.Cycles+100 {
		t.Errorf("120-cycle loads (%d) barely slower than 2-cycle loads (%d)", slow.Cycles, fast.Cycles)
	}
}

func TestFUContention(t *testing.T) {
	// Six independent FP ops per iteration against a single FP unit: issue
	// is FU-bound at 1/cycle regardless of width.
	tr := &trace.Trace{ID: 13}
	for i := 0; i < 6; i++ {
		tr.Insts = append(tr.Insts, isa.Inst{Op: isa.FPAdd, Dst: isa.Reg(isa.NumIntRegs + i), Src1: isa.NoReg})
	}
	tr.Insts = append(tr.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: isa.NoReg})
	res := run(tr, Dataflow, 8)
	perIter := res.SteadyCyclesPerIter()
	if perIter < 5.5 {
		t.Errorf("6 FP ops through 1 FP unit take %.1f cycles/iter, want >= 6", perIter)
	}
}

func TestUnpipelinedDivBlocks(t *testing.T) {
	tr := &trace.Trace{ID: 14, Insts: []isa.Inst{
		{Op: isa.IntDiv, Dst: 1, Src1: isa.NoReg},
		{Op: isa.IntDiv, Dst: 2, Src1: isa.NoReg},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: isa.NoReg},
	}}
	res := run(tr, Dataflow, 4)
	// Two independent divides share one unpipelined unit: >= 2*12 cycles
	// per iteration.
	if per := res.SteadyCyclesPerIter(); per < float64(2*isa.Latency[isa.IntDiv])-1 {
		t.Errorf("two divides per iter take %.1f cycles, want >= %d", per, 2*isa.Latency[isa.IntDiv])
	}
}

func TestIterEndsMonotonic(t *testing.T) {
	tr := blockedChains(3, 6)
	for _, pol := range []Policy{Dataflow, ProgramOrder} {
		res := run(tr, pol, 6)
		for i := 1; i < len(res.IterEnd); i++ {
			if res.IterEnd[i] < res.IterEnd[i-1] {
				t.Errorf("policy %d: IterEnd not monotone: %v", pol, res.IterEnd)
			}
		}
	}
}

func TestFetchGateDelaysIteration(t *testing.T) {
	tr := serialChain(5)
	base := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4,
		Policy: ProgramOrder, Width: 3})
	gated := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4,
		Policy: ProgramOrder, Width: 3, FetchGate: func(int) int { return 50 }})
	if gated.Cycles <= base.Cycles+100 {
		t.Errorf("fetch gates (%d cycles) should delay iterations vs base (%d)", gated.Cycles, base.Cycles)
	}
}

func TestEmptyRequests(t *testing.T) {
	if res := simulate(Request{}); res.Cycles != 0 {
		t.Error("empty request should return zero result")
	}
	tr := serialChain(3)
	if res := simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr)}); res.Cycles != 0 {
		t.Error("zero iterations should return zero result")
	}
}

func TestRecordedOrderRequiresFullOrder(t *testing.T) {
	tr := serialChain(3)
	defer func() {
		if recover() == nil {
			t.Error("short recorded order accepted")
		}
	}()
	simulate(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 2,
		Policy: RecordedOrder, Order: []uint16{0, 1}})
}

// TestCycleArithmeticBounded: the engine keeps cycles in 32 bits, so on
// every policy a resolved latency, fetch gate or mispredict penalty that
// could overflow them is a malformed request, as is a Dataflow window wide
// enough for placement's claims to overflow them, and inputs within bounds
// whose run passes the convergence guard stop there instead of wrapping.
// The latency bound still admits the memory hierarchy's slowest load.
func TestCycleArithmeticBounded(t *testing.T) {
	hold := 0
	for c := range isa.NumClasses {
		if !isa.Pipelined[c] {
			hold = max(hold, isa.Latency[c])
		}
	}
	if worst := mem.PageWalkCost + mem.L1Latency + mem.L2Latency + mem.MemLatency; worst > maxLatency {
		t.Fatalf("the memory hierarchy's slowest load takes %d cycles, past the %d resolve accepts", worst, maxLatency)
	}
	if span := maxWindow * (maxLatency + 1 + 2*hold); maxCycle+span >= 1<<31 {
		t.Fatalf("placement's claims reach cycle %d past the guard, beyond 32 bits", span)
	}
	tr := &trace.Trace{ID: 12, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	deps := trace.BuildDepGraph(tr)
	panicOf := func(req Request) (msg any) {
		defer func() { msg = recover() }()
		simulate(req)
		return nil
	}
	for _, pol := range []Policy{Dataflow, ProgramOrder, RecordedOrder} {
		for _, c := range []struct {
			name   string
			want   any
			change func(*Request)
		}{
			{"latency", "pipeline: load latency out of range",
				func(r *Request) { r.LoadLatency = func(int) int { return maxLatency + 1 } }},
			{"zero latency", "pipeline: load latency out of range",
				func(r *Request) { r.LoadLatency = func(int) int { return 0 } }},
			{"fetch gate", "pipeline: fetch gate out of range",
				func(r *Request) { r.FetchGate = func(int) int { return maxInput + 1 } }},
			{"penalty", "pipeline: mispredict penalty out of range",
				func(r *Request) { r.MispredictPenalty = maxInput + 1 }},
			{"negative penalty", "pipeline: mispredict penalty out of range",
				func(r *Request) { r.MispredictPenalty = -1 }},
			{"window", map[Policy]any{Dataflow: "pipeline: window out of range"}[pol],
				func(r *Request) { r.Window = maxWindow + 1 }},
			{"past the guard", map[Policy]string{
				Dataflow:      "pipeline: dataflow simulation did not converge",
				ProgramOrder:  "pipeline: in-order simulation did not converge",
				RecordedOrder: "pipeline: in-order simulation did not converge",
			}[pol], func(r *Request) {
				r.Iterations = maxCycle/maxLatency + 2
				r.LoadLatency = func(int) int { return maxLatency }
			}},
		} {
			req := Request{Trace: tr, Deps: deps, Iterations: 2, Policy: pol, Width: 3}
			if pol == RecordedOrder {
				req.Order = []uint16{0, 1}
			}
			c.change(&req)
			if got := panicOf(req); got != c.want {
				t.Errorf("policy %d, %s: panic %v, want %q", pol, c.name, got, c.want)
			}
		}
	}
}

// TestRecordedOrderRejectsConsumerFirst: a recorded order that issues a
// consumer before its producer is a malformed request, and the in-order
// pass panics on it. It runs on an engine that has just replayed the
// trace in a valid order, so the producer's completion slot holds a cycle
// from that run; the engine still matches the reference afterwards.
func TestRecordedOrderRejectsConsumerFirst(t *testing.T) {
	tr := &trace.Trace{ID: 13, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.IntALU, Dst: 2, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 2},
	}}
	deps := trace.BuildDepGraph(tr)
	mk := func(order []uint16) Request {
		return Request{Trace: tr, Deps: deps, Iterations: 4, Policy: RecordedOrder, Order: order,
			Width: 3, LoadLatency: memLatPattern(13)}
	}
	valid, consumerFirst := []uint16{0, 1, 2}, []uint16{1, 0, 2}
	e := NewEngine()
	e.run(mk(valid), false)
	func() {
		defer func() {
			if msg := recover(); msg != "pipeline: in-order issue saw unissued predecessor" {
				t.Errorf("consumer before its producer: panic %v", msg)
			}
		}()
		e.run(mk(consumerFirst), false)
	}()
	if got, want := e.run(mk(valid), false), referenceRun(mk(valid)); !reflect.DeepEqual(got, want) {
		t.Errorf("after the panic: got %+v, want %+v", got, want)
	}
}

func TestMaxLiveVersionsSerialReuse(t *testing.T) {
	// A chain writing r1 repeatedly, issued in program order: each value
	// dies when the next is produced, except the loop-carried last one.
	tr := serialChain(6)
	order := make([]uint16, len(tr.Insts))
	for i := range order {
		order[i] = uint16(i)
	}
	if v := MaxLiveVersions(tr, order); v > 2 {
		t.Errorf("serial in-order chain needs %d versions, want <= 2", v)
	}
}

func TestMaxLiveVersionsGrowsWithUnroll(t *testing.T) {
	tr := serialChain(4)
	n := len(tr.Insts)
	// In-order over a 4-iteration block.
	order := make([]uint16, 4*n)
	for i := range order {
		order[i] = uint16(i)
	}
	inOrder := MaxLiveVersions(tr, order)
	// Fully interleaved across iterations: all four iterations' writes to
	// r1 overlap, requiring more versions.
	k := 0
	for j := 0; j < n; j++ {
		for it := 0; it < 4; it++ {
			order[k] = uint16(it*n + j)
			k++
		}
	}
	interleaved := MaxLiveVersions(tr, order)
	if interleaved <= inOrder {
		t.Errorf("interleaved unroll needs %d versions, in-order %d; want growth", interleaved, inOrder)
	}
}

func TestSteadyCyclesPerIter(t *testing.T) {
	r := Result{IterEnd: []int{10, 20, 30, 40}}
	if got := r.SteadyCyclesPerIter(); got != 10 {
		t.Errorf("steady cycles %v, want 10", got)
	}
	r = Result{IterEnd: []int{7}}
	if got := r.SteadyCyclesPerIter(); got != 7 {
		t.Errorf("single-iteration steady %v", got)
	}
	r = Result{}
	if got := r.SteadyCyclesPerIter(); got != 0 {
		t.Errorf("empty steady %v", got)
	}
}
