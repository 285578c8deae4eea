// Timeline case studies: Figure 5 (bzip2 ΔSC-MPKI vs IPC) and Figure 10
// (astar+hmmer+bzip2 under maxSTP vs SC-MPKI).

package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Figure5 reproduces the bzip2 timeline: per-interval IPC and ΔSC-MPKI on a
// Mirage cluster. Phase changes show up as IPC level shifts with ΔSC-MPKI
// spikes in their immediate locus, which is exactly the signal the SC-MPKI
// arbitrator keys on.
func Figure5(ctx context.Context, s Scale) (*Report, error) {
	mr, err := figure5Run(ctx, s)
	if err != nil {
		return nil, err
	}
	tl := mr.Cluster.Apps[0].Timeline
	if len(tl) > s.TimelineIntervals {
		tl = tl[:s.TimelineIntervals]
	}
	r := &Report{ID: "Figure 5",
		Notes: "ΔSC-MPKI spikes cluster around IPC level shifts (phase changes); sampled every 8 intervals"}
	r.Table.Title = "Figure 5: bzip2 timeline (ΔSC-MPKI vs IPC)"
	r.Table.Headers = []string{"interval", "IPC", "ΔSC-MPKI", "on OoO"}
	for i := 0; i < len(tl); i += 8 {
		p := tl[i]
		r.Table.AddRow(fmt.Sprint(i), stats.F(p.IPC), stats.F(p.DeltaSCMPKI), onOoO(p.OnOoO))
	}
	return r, nil
}

// Figure5Correlation quantifies the figure's claim for tests: intervals
// right after a large ΔSC-MPKI spike are more likely to be scheduled on the
// OoO than average intervals.
func Figure5Correlation(ctx context.Context, s Scale) (spikeMigrations, baseMigrations float64, err error) {
	mr, err := figure5Run(ctx, s)
	if err != nil {
		return 0, 0, err
	}
	tl := mr.Cluster.Apps[0].Timeline
	var spikeN, spikeHit, baseN, baseHit float64
	for i := 0; i+1 < len(tl); i++ {
		if tl[i].OnOoO {
			continue
		}
		hit := 0.0
		if tl[i+1].OnOoO {
			hit = 1
		}
		if tl[i].DeltaSCMPKI > 2 {
			spikeN++
			spikeHit += hit
		} else {
			baseN++
			baseHit += hit
		}
	}
	if spikeN == 0 || baseN == 0 {
		return 0, 0, fmt.Errorf("figure5: no spikes observed (spikeN=%v baseN=%v)", spikeN, baseN)
	}
	return spikeHit / spikeN, baseHit / baseN, nil
}

// figure5Run is the run Figure 5 and Figure5Correlation both read: the
// bzip2/namd/gamess mix on Mirage under SC-MPKI, long enough to cross
// several of bzip2's phases.
func figure5Run(ctx context.Context, s Scale) (*core.MixResult, error) {
	cfg := s.baseConfig("fig5")
	cfg.Topology = core.TopologyMirage
	cfg.Policy = core.PolicySCMPKI
	cfg.Benchmarks = []string{"bzip2", "namd", "gamess"}
	cfg.TargetInsts = s.TargetInsts * 4
	cfg.IntervalCycles = s.IntervalCycles / 2
	return core.RunMix(ctx, cfg)
}

func onOoO(b bool) string {
	if b {
		return "OoO"
	}
	return "-"
}

// Figure10 reproduces the 3:1 case study: astar, hmmer and bzip2 under the
// maxSTP and SC-MPKI arbitrators. The report summarizes each timeline as
// OoO residency and mean speedup; the paper's qualitative claims are that
// maxSTP parks hmmer on the OoO and starves bzip2, while SC-MPKI memoizes
// hmmer and bzip2, frees the OoO, and leaves astar alone in both cases.
func Figure10(ctx context.Context, s Scale) (*Report, error) {
	mix := []string{"astar", "hmmer", "bzip2"}
	r := &Report{ID: "Figure 10",
		Notes: "maxSTP parks the worst-slowdown app on the OoO; SC-MPKI memoizes instead and powers down"}
	r.Table.Title = "Figure 10: case study (3 InO : 1 OoO), astar + hmmer + bzip2"
	r.Table.Headers = []string{"arbitrator", "app", "%intervals on OoO", "speedup vs OoO"}

	// One Compare shares the Homo-OoO reference between both arbitrators
	// and fans its runs out internally.
	arms := []core.Arm{{core.PolicyMaxSTP, core.TopologyTraditional}, {core.PolicySCMPKI, core.TopologyMirage}}
	base := s.baseConfig("fig10")
	base.Parallel = s.Parallel
	cmp, err := core.Compare(ctx, mix, base, arms)
	if err != nil {
		return nil, err
	}
	for _, arm := range arms {
		mr := cmp.ByPolicy[arm.Policy]
		for i, a := range mr.Cluster.Apps {
			onOoO := 0
			for _, iv := range a.Timeline {
				if iv.OnOoO {
					onOoO++
				}
			}
			share := 0.0
			if len(a.Timeline) > 0 {
				share = float64(onOoO) / float64(len(a.Timeline))
			}
			r.Table.AddRow(string(arm.Policy), a.Name, stats.Pct(share),
				stats.F(a.IPC/cmp.RefIPC[i]))
		}
	}
	return r, nil
}
