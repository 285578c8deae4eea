// Category, fairness, area-neutral and migration-cost experiments:
// Figures 9a, 11, 12, 13, 14 and 15.

package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ino"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Figure9a reports the per-structure power breakdown of the OoO, InO and
// OinO pipelines, as percentages of each core's total, measured on a
// representative memoizable workload.
func Figure9a() (*Report, error) {
	b := program.ByName("hmmer")
	l := b.Phases[0].Loops[0]
	h := mem.NewHierarchy()
	co := ooo.New(h, xrand.NewString("f9a-ooo"))
	ci := ino.New(h, xrand.NewString("f9a-ino"))
	ws := walkersFor(l.Trace, "f9a")
	co.Measure(l.Trace, l.Deps, ws, 120)
	ro := co.MeasureTrace(l.Trace, l.Deps, ws, 24)
	ri := ci.MeasureTrace(l.Trace, l.Deps, ws, 24)
	rr := ci.MeasureReplay(l.Trace, l.Deps, ro.Schedule, ws, 24)

	bO := energy.Compute(energy.KindOoO, ro.Events)
	bI := energy.Compute(energy.KindInO, ri.Events)
	bR := energy.Compute(energy.KindOinO, rr.Events)

	r := &Report{ID: "Figure 9a",
		Notes: "OinO adds PRF/LSQ/SC activity over InO but has no rename, ROB or scheduler; absolute power stays far below OoO"}
	r.Table.Title = "Figure 9a: per-structure share of core power"
	r.Table.Headers = []string{"structure", "OoO", "InO", "OinO"}
	tO, tI, tR := bO.Total(), bI.Total(), bR.Total()
	for s := energy.Structure(0); s < energy.NumStructures; s++ {
		r.Table.AddRow(s.String(), stats.Pct(bO[s]/tO), stats.Pct(bI[s]/tI), stats.Pct(bR[s]/tR))
	}
	pI := tI / float64(ri.Events.Cycles)
	pR := tR / float64(rr.Events.Cycles)
	pO := tO / float64(ro.Events.Cycles)
	r.Notes += fmt.Sprintf("; absolute power ratios: OoO/OinO=%.1f OinO/InO=%.1f", pO/pR, pR/pI)
	return r, nil
}

// categories are the benchmark-category mix groups of Figures 11 and 15.
var categories = []struct {
	label string
	kind  core.MixKind
}{
	{"HPD", core.MixHPD},
	{"LPD", core.MixLPD},
	{"Random", core.MixRandom},
}

// Figure11 evaluates the 8:1 configuration per benchmark category: HPD-only
// mixes, LPD-only mixes and random mixes, reporting STP, OoO utilization
// and energy relative to Homo-OoO for each arbitrator.
func Figure11(ctx context.Context, s Scale) (*Report, error) {
	r := &Report{ID: "Figure 11",
		Notes: "HPD memoizes more and uses the OoO more; LPD saves more energy; random mixes sit between"}
	r.Table.Title = "Figure 11: 8:1 by benchmark category"
	r.Table.Headers = []string{"mix", "metric", "Homo-InO", "SC-MPKI", "SC-MPKI+maxSTP", "maxSTP"}

	groups := make([][][]string, len(categories))
	for ki, kr := range categories {
		groups[ki] = core.RandomMixes(kr.kind, 8, s.MixesPerPoint, "fig11-"+kr.label)
	}
	points, err := compareGrid(ctx, s, groups,
		func(g, mi int) string { return fmt.Sprintf("f11-%s-%d", categories[g].label, mi) },
		core.ArbitratorSet)
	if err != nil {
		return nil, err
	}
	for ki, kr := range categories {
		p := points[ki]
		sc, both, maxSTP := p.arms[core.PolicySCMPKI], p.arms[core.PolicySCMPKIMaxSTP], p.arms[core.PolicyMaxSTP]
		r.Table.AddRow(kr.label, "STP", stats.Pct(p.homoInO.stp), stats.Pct(sc.stp), stats.Pct(both.stp), stats.Pct(maxSTP.stp))
		r.Table.AddRow(kr.label, "OoO util", "-", stats.Pct(sc.oooActive), stats.Pct(both.oooActive), stats.Pct(maxSTP.oooActive))
		r.Table.AddRow(kr.label, "energy", stats.Pct(p.homoInO.energy), stats.Pct(sc.energy), stats.Pct(both.energy), stats.Pct(maxSTP.energy))
	}
	return r, nil
}

// Figure12 reports how the OoO's active time divides among the eight
// applications of one mix under each arbitrator: maxSTP starves most apps,
// Fair splits evenly, SC-MPKI-fair caps every app at its 1/n share.
func Figure12(ctx context.Context, s Scale) (*Report, error) {
	mix := core.RandomMixes(core.MixRandom, 8, 1, "fig12")[0]
	r := &Report{ID: "Figure 12",
		Notes: "share of OoO-active cycles per app; SC-MPKI-fair keeps every app at or below 1/8"}
	r.Table.Title = "Figure 12: OoO utilization per benchmark (8:1)"
	headers := []string{"arbitrator"}
	for i, name := range mix {
		headers = append(headers, fmt.Sprintf("app%d:%s", i, name))
	}
	r.Table.Headers = headers

	shares, err := OoOShares(ctx, s, "fig12", mix, core.FairSet)
	if err != nil {
		return nil, err
	}
	for _, pol := range []core.Policy{core.PolicyMaxSTP, core.PolicySCMPKI, core.PolicyFair, core.PolicySCMPKIFair} {
		// Utilization of the OoO by each app, as a fraction of total time:
		// rows need not sum to 100% — the remainder is the OoO power-gated
		// (Section 5.3's point).
		row := []string{string(pol)}
		for _, share := range shares[pol] {
			row = append(row, stats.Pct(share))
		}
		r.Table.AddRow(row...)
	}
	return r, nil
}

// OoOShares returns each app's share of total OoO time under each policy of
// the line-up, keyed by policy (Figure 12 and the fairness property tests).
// Every run is seeded with seed; the per-policy runs are independent and
// fan out to the scale's worker pool.
func OoOShares(ctx context.Context, s Scale, seed string, mix []string, set []core.Arm) (map[core.Policy][]float64, error) {
	mrs, err := runner.Map(ctx, s.Parallel, set,
		func(_ int, arm core.Arm) string { return seed + ":" + string(arm.Policy) },
		func(_ int, arm core.Arm) (*core.MixResult, error) {
			cfg := s.baseConfig(seed)
			cfg.Topology = arm.Topology
			cfg.Policy = arm.Policy
			cfg.Benchmarks = mix
			return core.RunMix(context.Background(), cfg)
		})
	if err != nil {
		return nil, err
	}
	out := make(map[core.Policy][]float64, len(set))
	for i, pt := range set {
		mr := mrs[i]
		shares := make([]float64, len(mr.Cluster.Apps))
		for ai, a := range mr.Cluster.Apps {
			if mr.Cluster.RunCycles > 0 {
				shares[ai] = float64(a.OoOCycles) / float64(mr.Cluster.RunCycles)
			}
		}
		out[pt.Policy] = shares
	}
	return out, nil
}

// Figure13 evaluates the fair arbitrators across cluster sizes:
// performance, OoO utilization and energy relative to Homo-OoO.
func Figure13(ctx context.Context, s Scale) (*Report, error) {
	r := &Report{ID: "Figure 13",
		Notes: "SC-MPKI-fair reaches Fair's balance while powering the OoO down when memoization suffices"}
	r.Table.Title = "Figure 13: fair schedulers vs cluster size"
	r.Table.Headers = []string{"n", "metric", "Homo-InO", "SC-MPKI-fair", "Fair"}
	groups := make([][][]string, len(s.NValues))
	for i, n := range s.NValues {
		groups[i] = core.RandomMixes(core.MixRandom, n, s.MixesPerPoint, fmt.Sprintf("fig13-%d", n))
	}
	points, err := compareGrid(ctx, s, groups,
		func(g, mi int) string { return fmt.Sprintf("f13-%d-%d", s.NValues[g], mi) },
		[]core.Arm{{core.PolicySCMPKIFair, core.TopologyMirage}, {core.PolicyFair, core.TopologyTraditional}})
	if err != nil {
		return nil, err
	}
	for i, n := range s.NValues {
		p := points[i]
		sf, f := p.arms[core.PolicySCMPKIFair], p.arms[core.PolicyFair]
		r.Table.AddRow(fmt.Sprint(n), "performance", stats.Pct(p.homoInO.stp), stats.Pct(sf.stp), stats.Pct(f.stp))
		r.Table.AddRow(fmt.Sprint(n), "utilization", "-", stats.Pct(sf.oooActive), stats.Pct(f.oooActive))
		r.Table.AddRow(fmt.Sprint(n), "energy", stats.Pct(p.homoInO.energy), stats.Pct(sf.energy), stats.Pct(f.energy))
	}
	return r, nil
}

// Figure14 is the area-neutral study: an 8:1 Mirage cluster under SC-MPKI
// against a Kumar-style 5:3 traditional Het-CMP under maxSTP, both running
// the same 8-application mixes.
func Figure14(ctx context.Context, s Scale) (*Report, error) {
	r := &Report{ID: "Figure 14",
		Notes: "one schedule-producing OoO beats two extra OoO cores at similar area"}
	r.Table.Title = "Figure 14: area-neutral comparison (relative to Homo-OoO)"
	r.Table.Headers = []string{"metric", "8:1 SC-MPKI", "5:3 maxSTP"}

	mixes := core.RandomMixes(core.MixRandom, 8, s.MixesPerPoint, "fig14")
	// One job per mix: the Mirage comparison plus the 5:3 traditional run,
	// executed inside the job in the old serial order.
	type f14Point struct {
		cmp *core.Comparison
		tr  *core.MixResult
	}
	points, err := runner.Map(ctx, s.Parallel, mixes,
		func(mi int, _ []string) string { return fmt.Sprintf("fig14/f14-%d", mi) },
		func(mi int, mix []string) (f14Point, error) {
			base := s.baseConfig(fmt.Sprintf("f14-%d", mi))
			cmp, err := core.Compare(context.Background(), mix, base, []core.Arm{{core.PolicySCMPKI, core.TopologyMirage}})
			if err != nil {
				return f14Point{}, err
			}
			tCfg := base
			tCfg.Topology = core.TopologyTraditional
			tCfg.Policy = core.PolicyMaxSTP
			tCfg.Benchmarks = mix
			tCfg.NumOoO = 3
			tr, err := core.RunMix(context.Background(), tCfg)
			if err != nil {
				return f14Point{}, err
			}
			tr.STP = stats.STP(tr.PerAppIPC, cmp.RefIPC)
			return f14Point{cmp: cmp, tr: tr}, nil
		})
	if err != nil {
		return nil, err
	}
	var stpM, stpT, utilM, utilT, eM, eT float64
	for _, p := range points {
		m := p.cmp.ByPolicy[core.PolicySCMPKI]
		stpM += m.STP
		utilM += m.OoOActiveFrac
		eM += m.EnergyPJ / p.cmp.HomoOoO.EnergyPJ

		stpT += p.tr.STP
		utilT += p.tr.OoOActiveFrac
		eT += p.tr.EnergyPJ / p.cmp.HomoOoO.EnergyPJ
	}
	k := float64(len(mixes))
	areaM := core.Area(core.TopologyMirage, 8) / core.Area(core.TopologyHomoOoO, 8)
	areaT := core.AreaK(core.TopologyTraditional, 5, 3) / core.Area(core.TopologyHomoOoO, 8)
	r.Table.AddRow("performance", stats.Pct(stpM/k), stats.Pct(stpT/k))
	r.Table.AddRow("utilization", stats.Pct(utilM/k), stats.Pct(utilT/k))
	r.Table.AddRow("energy", stats.Pct(eM/k), stats.Pct(eT/k))
	r.Table.AddRow("area", stats.Pct(areaM), stats.Pct(areaT))
	return r, nil
}

// Figure15 reports migration transfer costs as a fraction of execution time
// plus migration frequency, per benchmark category, for 8:1 SC-MPKI runs.
func Figure15(ctx context.Context, s Scale) (*Report, error) {
	r := &Report{ID: "Figure 15",
		Notes: "HPD migrates more often (schedule production); overall transfer overhead stays well under 1%"}
	r.Table.Title = "Figure 15: migration transfer costs (8:1, SC-MPKI)"
	r.Table.Headers = []string{"mix", "SC transfer", "L1 refill", "migrations/100 intervals", "overhead"}

	groups := make([][][]string, len(categories))
	for ki, kr := range categories {
		groups[ki] = core.RandomMixes(kr.kind, 8, s.MixesPerPoint, "fig15-"+kr.label)
	}
	mrs, err := runGrid(ctx, s, groups,
		func(g, mi int) string { return fmt.Sprintf("f15-%s-%d", categories[g].label, mi) },
		func(_ int, mix []string, seed string) (*core.MixResult, error) {
			cfg := s.baseConfig(seed)
			cfg.Topology = core.TopologyMirage
			cfg.Policy = core.PolicySCMPKI
			cfg.Benchmarks = mix
			return core.RunMix(context.Background(), cfg)
		})
	if err != nil {
		return nil, err
	}
	for ki, kr := range categories {
		var scFrac, l1Frac, freq float64
		var samples float64
		for _, mr := range mrs[ki] {
			for _, a := range mr.Cluster.Apps {
				if a.Cycles == 0 {
					continue
				}
				scFrac += float64(a.SCTransferCycles) / float64(a.Cycles)
				l1Frac += float64(a.L1RefillCycles) / float64(a.Cycles)
				freq += float64(a.Migrations) * 100 * float64(s.IntervalCycles) / float64(a.Cycles)
				samples++
			}
		}
		if samples == 0 {
			continue
		}
		r.Table.AddRow(kr.label,
			fmt.Sprintf("%.3f%%", 100*scFrac/samples),
			fmt.Sprintf("%.3f%%", 100*l1Frac/samples),
			stats.F(freq/samples),
			fmt.Sprintf("%.3f%%", 100*(scFrac+l1Frac)/samples))
	}
	return r, nil
}
