package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// qcfg returns a deterministic quick-check configuration so property
// failures are reproducible rather than time-seeded.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(1))}
}

// randomTrace generates a small well-formed trace from a seed: a random mix
// of op classes over a handful of rolling registers, ending in a branch.
func randomTrace(seed uint64) *trace.Trace {
	rng := xrand.New(seed)
	n := 8 + rng.Intn(40)
	t := &trace.Trace{
		ID:      trace.ID(seed),
		Streams: []trace.StreamSpec{{WorkingSet: 4096, Stride: 8}},
	}
	classes := []isa.Class{isa.IntALU, isa.IntALU, isa.IntMul, isa.FPAdd, isa.Load, isa.Store}
	for i := 0; i < n; i++ {
		op := classes[rng.Intn(len(classes))]
		in := isa.Inst{Op: op}
		src := isa.Reg(1 + rng.Intn(8))
		dst := isa.Reg(1 + rng.Intn(8))
		if op == isa.FPAdd || op == isa.FPMul || op == isa.FPDiv {
			src += isa.NumIntRegs
			dst += isa.NumIntRegs
		}
		switch op {
		case isa.Store:
			in.Src1, in.Src2, in.Dst = src, 0, isa.NoReg
		case isa.Load:
			in.Src1, in.Dst = 0, dst
		default:
			in.Src1, in.Src2, in.Dst = src, isa.Reg(1+rng.Intn(8)), dst
		}
		t.Insts = append(t.Insts, in)
	}
	t.Insts = append(t.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: 1})
	return t
}

// TestPropertyDataflowNeverSlower: over random traces, OoO issue never
// loses to in-order issue, and replaying the OoO's own recorded order never
// loses to program order nor beats the dataflow machine itself.
func TestPropertyDataflowNeverSlower(t *testing.T) {
	check := func(seed uint64) bool {
		tr := randomTrace(seed%10_000 + 1)
		g := trace.BuildDepGraph(tr)
		df := simulate(Request{Trace: tr, Deps: g, Iterations: 8, Policy: Dataflow,
			Width: 3, Window: 128, ProbeSpan: 2})
		io := simulate(Request{Trace: tr, Deps: g, Iterations: 8, Policy: ProgramOrder, Width: 3})
		if df.Cycles > io.Cycles+2 {
			t.Logf("seed %d: dataflow %d > in-order %d", seed, df.Cycles, io.Cycles)
			return false
		}
		re := simulate(Request{Trace: tr, Deps: g, Iterations: 8, Policy: RecordedOrder,
			Order: df.IssueOrder, ProbeSpan: 2, Width: 3})
		// Replay may modestly lose to program order on adversarial traces
		// (head-of-line blocking in the recorded permutation); the cluster
		// layer falls back to plain InO execution in that case. Here we
		// only bound the loss.
		if float64(re.Cycles) > 1.35*float64(io.Cycles)+4 {
			t.Logf("seed %d: replay %d far above in-order %d", seed, re.Cycles, io.Cycles)
			return false
		}
		// Greedy oldest-first wakeup/select is not provably optimal, so a
		// replayed permutation may finish a handful of cycles earlier;
		// anything beyond that indicates a dependence-tracking bug.
		if float64(re.Cycles) < 0.93*float64(df.Cycles)-4 {
			t.Logf("seed %d: replay %d beats dataflow %d", seed, re.Cycles, df.Cycles)
			return false
		}
		return true
	}
	if err := quick.Check(check, qcfg(60)); err != nil {
		t.Error(err)
	}
}

// TestPropertyIssueRespectsDependences: in every policy, no instruction
// issues before its register producers complete.
func TestPropertyIssueRespectsDependences(t *testing.T) {
	check := func(seed uint64) bool {
		tr := randomTrace(seed%10_000 + 50_000)
		g := trace.BuildDepGraph(tr)
		for _, pol := range []Policy{Dataflow, ProgramOrder} {
			res := simulate(Request{Trace: tr, Deps: g, Iterations: 4, Policy: pol,
				Width: 3, Window: 128})
			// Reconstruct issue cycles by re-running and inspecting the
			// probe block: the probe order is sorted by issue time, so a
			// consumer must appear after its producer.
			pos := make(map[int]int)
			for k, p := range res.IssueOrder {
				pos[int(p)] = k
			}
			n := len(tr.Insts)
			for j := 0; j < n; j++ {
				for _, p := range g.Preds[j] {
					if pos[j] < pos[p] {
						t.Logf("seed %d policy %d: consumer %d issued before producer %d",
							seed, pol, j, p)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, qcfg(40)); err != nil {
		t.Error(err)
	}
}

// TestPropertyCyclesScaleWithIterations: more iterations never finish
// earlier, and per-iteration cost stabilizes.
func TestPropertyCyclesScaleWithIterations(t *testing.T) {
	check := func(seed uint64) bool {
		tr := randomTrace(seed%10_000 + 90_000)
		g := trace.BuildDepGraph(tr)
		prev := 0
		for _, iters := range []int{2, 4, 8} {
			res := simulate(Request{Trace: tr, Deps: g, Iterations: iters,
				Policy: ProgramOrder, Width: 3})
			if res.Cycles < prev {
				return false
			}
			prev = res.Cycles
		}
		return true
	}
	if err := quick.Check(check, qcfg(40)); err != nil {
		t.Error(err)
	}
}

// TestPropertyMaxLiveVersionsBounds: versions are at least 1 and no more
// than the number of writes to the hottest register in the block.
func TestPropertyMaxLiveVersions(t *testing.T) {
	check := func(seed uint64) bool {
		tr := randomTrace(seed%10_000 + 130_000)
		g := trace.BuildDepGraph(tr)
		res := simulate(Request{Trace: tr, Deps: g, Iterations: 8, Policy: Dataflow,
			Width: 3, Window: 128, ProbeSpan: 2})
		v := MaxLiveVersions(tr, res.IssueOrder)
		if v < 1 {
			return false
		}
		writes := map[isa.Reg]int{}
		span := len(res.IssueOrder) / len(tr.Insts)
		for _, in := range tr.Insts {
			if in.HasDst() {
				writes[in.Dst] += span
			}
		}
		maxW := 1
		for _, w := range writes {
			if w > maxW {
				maxW = w
			}
		}
		// +1: the loop-carried value from before the block.
		return v <= maxW+1
	}
	if err := quick.Check(check, qcfg(40)); err != nil {
		t.Error(err)
	}
}
