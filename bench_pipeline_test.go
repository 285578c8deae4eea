package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// pipelineBefore holds the pre-rewrite engine's numbers for the benchmarks
// below, measured on the CI reference machine at the commit that captured
// the golden fixtures (the per-cycle rescan engine). BENCH_pipeline.json
// reports the current engine against this baseline.
var pipelineBefore = map[string]float64{
	"DataflowNsOp":     1_091_414,
	"InOrderNsOp":      45_002,
	"ReplayNsOp":       47_808,
	"SweepNsOp":        21_973_924_604,
	"DataflowAllocsOp": 1180,
	"InOrderAllocsOp":  1179,
	"ReplayAllocsOp":   1179,
}

// pipelineBenchTrace is a ~40-instruction loop body with four partially
// independent chains and regular memory traffic — enough ILP for the window
// to matter and enough loads for memory latency to dominate stalls, like the
// generated workloads the cluster layer simulates.
func pipelineBenchTrace() *trace.Trace {
	t := &trace.Trace{ID: 4242, Streams: []trace.StreamSpec{{WorkingSet: 1 << 20, Stride: 64}}}
	for c := 0; c < 4; c++ {
		base := isa.Reg(1 + 2*c)
		t.Insts = append(t.Insts,
			isa.Inst{Op: isa.Load, Dst: base, Src1: base},
			isa.Inst{Op: isa.IntALU, Dst: base + 1, Src1: base, Src2: base + 1},
			isa.Inst{Op: isa.IntMul, Dst: base, Src1: base + 1},
			isa.Inst{Op: isa.IntALU, Dst: base + 1, Src1: base, Src2: base + 1},
			isa.Inst{Op: isa.FPAdd, Dst: isa.NumIntRegs + base, Src1: isa.NumIntRegs + base},
			isa.Inst{Op: isa.IntALU, Dst: base, Src1: base + 1},
			isa.Inst{Op: isa.Load, Dst: base + 1, Src1: base},
			isa.Inst{Op: isa.IntALU, Dst: base + 1, Src1: base + 1, Src2: base},
			isa.Inst{Op: isa.Store, Src1: base + 1},
		)
	}
	t.Insts = append(t.Insts, isa.Inst{Op: isa.Branch, Dst: isa.NoReg, Src1: 1})
	return t
}

// pipelineBenchLats mimics the memory hierarchy: mostly L1 hits, some L2,
// occasional DRAM misses (the long stalls the calendar queue skips).
func pipelineBenchLats(seed uint64) func(int) int {
	rng := xrand.New(seed)
	lats := [8]int{2, 2, 2, 2, 2, 17, 17, 137}
	return func(int) int { return lats[rng.Intn(len(lats))] }
}

func pipelineBenchRequest(pol pipeline.Policy, tr *trace.Trace, deps *trace.DepGraph, order []uint16) pipeline.Request {
	req := pipeline.Request{
		Trace:             tr,
		Deps:              deps,
		Iterations:        16,
		Policy:            pol,
		Width:             isa.IssueWidth,
		Window:            isa.ROBSize,
		MispredictPenalty: isa.OoOPipelineDepth,
		LoadLatency:       pipelineBenchLats(7),
	}
	if pol == pipeline.RecordedOrder {
		req.Order = order
		req.ProbeSpan = len(order) / len(tr.Insts)
	}
	return req
}

var (
	pipelineBenchMu      sync.Mutex
	pipelineBenchResults = map[string]float64{}
)

// recordPipelineBench merges one benchmark's numbers into
// BENCH_pipeline.json alongside the pre-rewrite baseline and the derived
// speedups. Rewritten after every benchmark, and merged over the entries
// already on disk, so partial -bench filters refresh their own numbers
// without dropping the rest.
func recordPipelineBench(b *testing.B, name string, nsOp, allocsOp float64) {
	b.Helper()
	pipelineBenchMu.Lock()
	defer pipelineBenchMu.Unlock()
	pipelineBenchResults[name+"NsOp"] = nsOp
	if allocsOp >= 0 {
		pipelineBenchResults[name+"AllocsOp"] = allocsOp
	}

	after := make(map[string]float64, len(pipelineBenchResults))
	if buf, err := os.ReadFile("BENCH_pipeline.json"); err == nil {
		var prev struct {
			After map[string]float64 `json:"after"`
		}
		if json.Unmarshal(buf, &prev) == nil {
			for k, v := range prev.After {
				after[k] = v
			}
		}
	}
	for k, v := range pipelineBenchResults {
		after[k] = v
	}
	speedup := map[string]float64{}
	for k, now := range after {
		if was, ok := pipelineBefore[k]; ok && now > 0 {
			speedup[k] = was / now
		}
	}
	out := map[string]any{
		"benchmark": "BenchmarkPipeline*",
		"unit":      "ns/op (AllocsOp entries: allocs/op)",
		"before":    pipelineBefore,
		"after":     after,
		"speedup":   speedup,
	}
	buf, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_pipeline.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func benchPipelinePolicy(b *testing.B, name string, pol pipeline.Policy) {
	b.Helper()
	tr := pipelineBenchTrace()
	deps := trace.BuildDepGraph(tr)
	var order []uint16
	if pol == pipeline.RecordedOrder {
		df := pipeline.Run(pipelineBenchRequest(pipeline.Dataflow, tr, deps, nil))
		order = df.IssueOrder
	}
	req := pipelineBenchRequest(pol, tr, deps, order)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := pipeline.Run(req)
		if res.Cycles == 0 {
			b.Fatal("empty result")
		}
	}
	b.StopTimer()
	nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	allocsOp := testing.AllocsPerRun(50, func() { pipeline.Run(req) })
	recordPipelineBench(b, name, nsOp, allocsOp)
}

// TestPipelineRunAllocs pins the hot path's allocation budget: a steady-state
// run on an owned Engine (the path every core takes) may allocate only the
// slices the Result carries out (IterEnd and IssueOrder) and the result
// memo's entries, not per-run scratch. The pooled pipeline.Run isn't
// asserted on — a GC between runs may empty the pool and re-allocate
// engines, which is noise, not a leak. The bound is deliberately a little
// loose so unrelated runtime changes don't flake it; the pre-rewrite engine
// sat near 1180 allocs/op.
func TestPipelineRunAllocs(t *testing.T) {
	tr := pipelineBenchTrace()
	deps := trace.BuildDepGraph(tr)
	for _, pol := range []pipeline.Policy{pipeline.Dataflow, pipeline.ProgramOrder} {
		eng := pipeline.NewEngine()
		req := pipelineBenchRequest(pol, tr, deps, nil)
		eng.Run(req) // size the scratch and build the memoized dep CSR
		allocs := testing.AllocsPerRun(100, func() { eng.Run(req) })
		if allocs > 8 {
			t.Errorf("policy %d: Engine.Run allocates %.0f/op, want <= 8", pol, allocs)
		}
	}
}

// BenchmarkPipelineDataflow measures pipeline.Run under OoO wakeup/select
// issue — the inner loop of every OoO measurement in the simulator.
func BenchmarkPipelineDataflow(b *testing.B) {
	benchPipelinePolicy(b, "Dataflow", pipeline.Dataflow)
}

// BenchmarkPipelineInOrder measures stall-on-use in-order issue.
func BenchmarkPipelineInOrder(b *testing.B) {
	benchPipelinePolicy(b, "InOrder", pipeline.ProgramOrder)
}

// BenchmarkPipelineReplay measures OinO recorded-order replay.
func BenchmarkPipelineReplay(b *testing.B) {
	benchPipelinePolicy(b, "Replay", pipeline.RecordedOrder)
}

// BenchmarkPipelineSweep is the end-to-end check that engine-level wins
// survive the full stack: the reduced Figures 7/8/9b sweep (the same shape
// BenchmarkSweepParallel uses), run serially so the pipeline engine — not
// worker-pool scaling — is the variable.
func BenchmarkPipelineSweep(b *testing.B) {
	sweep := experiments.Scale{
		TargetInsts:    1_000_000,
		IntervalCycles: 40_000,
		MixesPerPoint:  3,
		NValues:        []int{4, 8},
		Parallel:       1,
	}
	program.Suite() // generate the workload suite outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sweep
		s.Name = fmt.Sprintf("pipesweep-i%d", i)
		if _, err := experiments.Figure7(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	recordPipelineBench(b, "Sweep", nsOp, -1)
}
