// Interval-length studies: Figure 3b (migration overhead and memoizability
// versus switching interval) and Figure 6 (area versus cluster size).

package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Figure3b reproduces the two curves that set the 1M-cycle interval:
//
//   - Performance relative to no switching, for an application forced to
//     migrate between two identical cores every n cycles (cold L1s + drain
//     each time): losses shrink from >10% at 1K-cycle intervals to ~1%
//     beyond 1M.
//   - The fraction of instructions usefully memoized when the OoO may only
//     refresh an infinite SC every n cycles: memoizability decays as the
//     interval outgrows schedule lifetimes and phase lengths.
func Figure3b(ctx context.Context, s Scale) (*Report, error) {
	intervals := []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	mix := []string{"bzip2", "hmmer"}

	r := &Report{ID: "Figure 3b",
		Notes: "migration penalty shrinks with interval length while memoizability decays; the paper picks 1M cycles"}
	r.Table.Title = "Figure 3b: interval length trade-off"
	r.Table.Headers = []string{"interval (cycles)", "perf vs no switching", "%insts memoized"}

	// Each interval is an independent pair of measurements; fan them out and
	// add rows from the collated slice in interval order.
	type ivPoint struct{ perf, memo float64 }
	points, err := runner.Map(ctx, s.Parallel, intervals,
		func(_ int, iv int64) string { return fmt.Sprintf("fig3b/iv-%d", iv) },
		func(_ int, iv int64) (ivPoint, error) {
			perf, err := pingPongPerf(s, mix, iv)
			if err != nil {
				return ivPoint{}, err
			}
			return ivPoint{perf: perf, memo: refreshMemoizability(iv)}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, iv := range intervals {
		r.Table.AddRow(fmt.Sprint(iv), stats.Pct(points[i].perf), stats.Pct(points[i].memo))
	}
	return r, nil
}

// pingPongPerf measures throughput with forced migrations every `interval`
// cycles, relative to the same run without switching.
func pingPongPerf(s Scale, mix []string, interval int64) (float64, error) {
	// The cluster migrates at interval boundaries, so express the switching
	// period through the interval length itself.
	base := s.baseConfig("fig3b")
	base.Topology = core.TopologyHomoInO
	base.Benchmarks = mix
	base.TargetInsts = s.TargetInsts / 2
	base.IntervalCycles = interval
	stable, err := core.RunMix(context.Background(), base)
	if err != nil {
		return 0, err
	}
	moved := base
	moved.PingPongEvery = 1
	moving, err := core.RunMix(context.Background(), moved)
	if err != nil {
		return 0, err
	}
	return stats.Mean(moving.PerAppIPC) / stats.Mean(stable.PerAppIPC), nil
}

// refreshMemoizability estimates, per benchmark and averaged over the
// suite, the fraction of instructions that execute from a valid memoized
// schedule when the SC can only be refreshed every `interval` cycles.
//
// Two decay mechanisms bound it, both measured from the generated
// workloads rather than assumed: phases end (a refresh at a phase start
// only covers the remainder of the phase — single-phase programs never go
// stale), and low-stability schedules drift (a trace whose schedule
// repeats with probability p stays useful for ~1/(1-p) executions, so
// frequent refreshes capture short-lived schedules that long intervals
// miss — the gcc effect of Section 3.2.1).
func refreshMemoizability(interval int64) float64 {
	var vals []float64
	for _, b := range program.Suite() {
		var frac, weight float64
		multiPhase := len(b.Phases) > 1
		for _, ph := range b.Phases {
			phaseCycles := phaseLenCycles(b, ph)
			for _, l := range ph.Loops {
				w := l.Weight * float64(l.Trace.Len())
				weight += w
				if l.Trace.Stability == 0 {
					continue
				}
				cover := 1.0
				if multiPhase {
					// A refresh only covers the remainder of the phase it
					// lands in.
					cover = math.Min(1, phaseCycles/float64(interval))
				}
				if l.Trace.Stability < 0.7 {
					// Short-lived schedules need frequent refresh.
					cpi := approxCPI(b.Name, &l)
					horizon := cpi / math.Max(1e-3, 1-l.Trace.Stability) * 50
					cover = math.Min(cover, horizon/float64(interval))
				}
				frac += w * l.Trace.Stability * cover
			}
		}
		if weight > 0 {
			vals = append(vals, frac/weight)
		}
	}
	return stats.Mean(vals)
}

// cpiCache memoizes per-trace CPI measurements; runner.Cache keeps it safe
// when several Figure 3b interval jobs hit the same trace concurrently.
var cpiCache runner.Cache[string, float64]

func approxCPI(bench string, l *program.Loop) float64 {
	key := fmt.Sprintf("%s/%d", bench, l.Trace.ID)
	v, _ := cpiCache.Do(key, func() (float64, error) {
		h := mem.NewHierarchy()
		co := ooo.New(h, xrand.NewString("f3b:"+bench))
		ws := walkersFor(l.Trace, "f3b:"+bench)
		co.Measure(l.Trace, l.Deps, ws, 60)
		v := co.Measure(l.Trace, l.Deps, ws, 8).CyclesPerIter
		if v <= 0 {
			v = float64(l.Trace.Len())
		}
		return v, nil
	})
	return v
}

func phaseLenCycles(b *program.Benchmark, ph program.Phase) float64 {
	// Convert the phase's instruction span to cycles at roughly IPC 2.
	var next int64 = b.PhaseLen()
	for _, p := range b.Phases {
		if p.StartInst > ph.StartInst {
			next = p.StartInst
			break
		}
	}
	return float64(next-ph.StartInst) / 2
}

// Figure6 reports CMP area relative to a Homo-OoO CMP with n cores, for
// Homo-InO (n:0), Mirage (n:1 with OinO structures) and a traditional
// Het-CMP (n:1), across cluster sizes.
func Figure6(s Scale) *Report {
	r := &Report{ID: "Figure 6",
		Notes: "adding the producer OoO and the OinO structures raises area over Homo-InO, yet stays well under Homo-OoO"}
	r.Table.Title = "Figure 6: area relative to Homo-OoO"
	r.Table.Headers = []string{"n", "n:0 Homo-InO", "n:1 MirageCores", "n:1 TraditionalCores"}
	for _, n := range s.NValues {
		base := energy.ClusterArea(n, 0, 0)
		r.Table.AddRow(fmt.Sprint(n),
			stats.Pct(energy.ClusterArea(0, n, 0)/base),
			stats.Pct(energy.ClusterArea(1, 0, n)/base),
			stats.Pct(energy.ClusterArea(1, n, 0)/base))
	}
	return r
}
