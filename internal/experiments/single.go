// Single-benchmark experiments: the Table 1 classification and the
// motivation figures (Figure 1 core comparison, Figure 2 oracle
// memoization).

package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ino"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// benchProfile is one benchmark's single-core measurement set.
type benchProfile struct {
	name     string
	category program.Category

	ipcOoO, ipcInO       float64
	powerOoO, powerInO   float64 // pJ/cycle
	energyOoO, energyInO float64 // pJ for the instruction target

	// Oracle memoization (Figure 2): perfect control flow, infinite SC.
	memoFrac      float64 // fraction of instructions usefully memoizable
	oraclePerfRel float64 // oracle-memoized InO performance relative to OoO
}

// profileCache memoizes per-benchmark profiles. It used to be a bare
// package-global map — a latent data race once Table 1 / Figures 1-2 run
// concurrently with anything else profiling; runner.Cache gives the same
// memoization with singleflight semantics (see TestProfileConcurrent).
var profileCache = runner.Cache[string, *benchProfile]{AbandonGrace: 40 * time.Millisecond}

// profile measures one benchmark standalone on both core types. Concurrent
// callers for the same (scale, benchmark) share one flight; the flight
// context is detached from any single caller, so a request abandoning its
// profile does not kill it for others.
func profile(ctx context.Context, s Scale, name string) (*benchProfile, error) {
	key := s.Name + "/" + name
	p, _, err := profileCache.DoContext(ctx, key, func(fctx context.Context) (*benchProfile, error) {
		b := program.ByName(name)
		if b == nil {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
		}
		p := &benchProfile{name: name, category: b.Params.Category}

		for _, topo := range []core.Topology{core.TopologyHomoOoO, core.TopologyHomoInO} {
			cfg := s.baseConfig("profile")
			cfg.Topology = topo
			cfg.Benchmarks = []string{name}
			mr, err := core.RunMix(fctx, cfg)
			if err != nil {
				return nil, err
			}
			a := mr.Cluster.Apps[0]
			switch topo {
			case core.TopologyHomoOoO:
				p.ipcOoO = a.IPC
				p.energyOoO = a.EnergyPJ.Total()
				p.powerOoO = a.EnergyPJ.Total() / float64(a.Cycles)
			default:
				p.ipcInO = a.IPC
				p.energyInO = a.EnergyPJ.Total()
				p.powerInO = a.EnergyPJ.Total() / float64(a.Cycles)
			}
		}

		p.memoFrac, p.oraclePerfRel = oracleMemoization(b)
		return p, nil
	})
	return p, err
}

// oracleMemoization measures the Figure 2 quantities: with perfect control
// flow and an infinite Schedule Cache, what fraction of execution replays a
// memoized schedule, and the resulting InO performance relative to the OoO
// measured under identical conditions.
func oracleMemoization(b *program.Benchmark) (frac, perfRel float64) {
	var wMemo, wAll float64
	var cycles, oooCycles float64
	for _, ph := range b.Phases {
		for _, l := range ph.Loops {
			h := mem.NewHierarchy()
			co := ooo.New(h, xrand.NewString("oracle-o:"+b.Name))
			ci := ino.New(h, xrand.NewString("oracle-i:"+b.Name))
			ws := walkersFor(l.Trace, "oracle:"+b.Name)
			co.Measure(l.Trace, l.Deps, ws, 120) // warm caches
			ro, rec := co.Record(l.Trace, l.Deps, ws, 12)

			w := l.Weight * float64(l.Trace.Len())
			wAll += w
			// Memoizable: the schedule repeats (stability) and the OinO
			// hardware can replay it; the schedule is built only for a
			// trace that passes the first test.
			memoizable := l.Trace.Stability > 0.5 && l.Trace.AliasRate <= 0.05
			var sched *trace.Schedule
			if memoizable {
				sched = rec.Schedule()
				memoizable = sched.Replayable()
			}
			var cpi float64
			if memoizable {
				// With perfect control flow (the oracle assumption), every
				// execution of a stable trace replays its schedule.
				wMemo += w
				cpi = ci.MeasureReplay(l.Trace, l.Deps, sched, ws, 12).CyclesPerIter
			} else {
				cpi = ci.MeasureTrace(l.Trace, l.Deps, ws, 12).CyclesPerIter
			}
			cycles += l.Weight * cpi
			oooCycles += l.Weight * ro.CyclesPerIter
		}
	}
	if wAll == 0 || cycles == 0 {
		return 0, 0
	}
	return wMemo / wAll, oooCycles / cycles
}

func walkersFor(t *trace.Trace, tag string) []*mem.Walker {
	ws := make([]*mem.Walker, len(t.Streams))
	rng := xrand.NewString(tag)
	for i, spec := range t.Streams {
		ws[i] = mem.NewWalker(spec, rng.Fork(fmt.Sprint(i)))
	}
	return ws
}

// categoryAgg averages a metric over benchmarks, overall and per category.
func categoryAgg(ps []*benchProfile, f func(*benchProfile) float64) (overall, hpd, lpd float64) {
	var all, h, l []float64
	for _, p := range ps {
		v := f(p)
		all = append(all, v)
		if p.category == program.HPD {
			h = append(h, v)
		} else {
			l = append(l, v)
		}
	}
	return stats.Mean(all), stats.Mean(h), stats.Mean(l)
}

// allProfiles profiles the whole suite, fanning the per-benchmark jobs out
// to the scale's worker pool; the cache's singleflight semantics keep each
// benchmark profiled once even when figures run concurrently.
func allProfiles(ctx context.Context, s Scale) ([]*benchProfile, error) {
	return runner.Map(ctx, s.Parallel, program.Names(),
		func(_ int, name string) string { return "profile/" + name },
		func(_ int, name string) (*benchProfile, error) { return profile(context.Background(), s, name) })
}

// Table1 reproduces the benchmark classification: IPC ratio per benchmark
// with its HPD/LPD category (< 60% => HPD).
func Table1(ctx context.Context, s Scale) (*Report, error) {
	ps, err := allProfiles(ctx, s)
	if err != nil {
		return nil, err
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].category != ps[j].category {
			return ps[i].category == program.HPD
		}
		return ps[i].name < ps[j].name
	})
	r := &Report{ID: "Table 1",
		Notes: "classification threshold: InO/OoO IPC ratio of 60%"}
	r.Table.Title = "Table 1: benchmark classification by InO/OoO IPC ratio"
	r.Table.Headers = []string{"benchmark", "category", "IPC ratio"}
	for _, p := range ps {
		r.Table.AddRow(p.name, p.category.String(), stats.Pct(p.ipcInO/p.ipcOoO))
	}
	return r, nil
}

// Table2 prints the experimental core parameters (configuration constants).
func Table2() *Report {
	r := &Report{ID: "Table 2"}
	r.Table.Title = "Table 2: experimental core parameters"
	r.Table.Headers = []string{"feature", "parameters"}
	r.Table.AddRow("OoO", "3-wide superscalar, 12-stage pipeline, 128-entry ROB, 128/256-entry int/FP PRF, 8KB Schedule Cache")
	r.Table.AddRow("InO", "3-wide superscalar, 8-stage pipeline, stall-on-use, 8KB Schedule Cache, OinO mode (128-entry versioned PRF, 32-entry replay LSQ)")
	r.Table.AddRow("L1", "32KB I + 32KB D @ 2 cycles, per core")
	r.Table.AddRow("L2", "2MB shared per benchmark, stride prefetcher @ 15 cycles")
	r.Table.AddRow("memory", "120 cycles")
	r.Table.AddRow("bus", "32B coherent bus; 8KB SC transfer ~ 1000 cycles")
	return r
}

// Figure1 reproduces the InO-vs-OoO comparison: performance, power, energy
// and area of the InO relative to the OoO, overall and per category.
func Figure1(ctx context.Context, s Scale) (*Report, error) {
	ps, err := allProfiles(ctx, s)
	if err != nil {
		return nil, err
	}
	perf := func(p *benchProfile) float64 { return p.ipcInO / p.ipcOoO }
	power := func(p *benchProfile) float64 { return p.powerInO / p.powerOoO }
	egy := func(p *benchProfile) float64 { return p.energyInO / p.energyOoO }

	pAll, pHPD, pLPD := categoryAgg(ps, perf)
	wAll, wHPD, wLPD := categoryAgg(ps, power)
	eAll, eHPD, eLPD := categoryAgg(ps, egy)
	area := energy.AreaInO / energy.AreaOoO

	r := &Report{ID: "Figure 1",
		Notes: "paper: InO ~60% perf, ~1/5 power, ~1/3 energy, <1/2 area of the OoO; HPD loses more performance than LPD"}
	r.Table.Title = "Figure 1: InO relative to OoO"
	r.Table.Headers = []string{"metric", "overall", "HPD", "LPD"}
	r.Table.AddRow("performance", stats.Pct(pAll), stats.Pct(pHPD), stats.Pct(pLPD))
	r.Table.AddRow("power", stats.Pct(wAll), stats.Pct(wHPD), stats.Pct(wLPD))
	r.Table.AddRow("energy", stats.Pct(eAll), stats.Pct(eHPD), stats.Pct(eLPD))
	r.Table.AddRow("area", stats.Pct(area), stats.Pct(area), stats.Pct(area))
	return r, nil
}

// Figure2 reproduces the oracle memoization study: the fraction of
// instructions that can be usefully memoized and the resulting InO
// performance, relative to the OoO, per category.
func Figure2(ctx context.Context, s Scale) (*Report, error) {
	ps, err := allProfiles(ctx, s)
	if err != nil {
		return nil, err
	}
	frac := func(p *benchProfile) float64 { return p.memoFrac }
	perf := func(p *benchProfile) float64 { return p.oraclePerfRel }
	fAll, fHPD, fLPD := categoryAgg(ps, frac)
	pAll, pHPD, pLPD := categoryAgg(ps, perf)

	r := &Report{ID: "Figure 2",
		Notes: "oracle: perfect control flow, infinite SC; paper: HPD memoizes more and gains more"}
	r.Table.Title = "Figure 2: oracle memoization (relative to OoO)"
	r.Table.Headers = []string{"metric", "overall", "HPD", "LPD"}
	r.Table.AddRow("%insts memoized", stats.Pct(fAll), stats.Pct(fHPD), stats.Pct(fLPD))
	r.Table.AddRow("perf with memoization", stats.Pct(pAll), stats.Pct(pHPD), stats.Pct(pLPD))
	return r, nil
}
