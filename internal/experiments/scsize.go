// The Schedule Cache sizing study of Section 4.2: the paper picked 8 KB
// because relative STP plateaus there while energy overheads keep growing —
// "the best performance per mm^2".

package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// SCSizes swept by the study, in bytes.
var SCSizes = []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}

// SCSize reproduces the SC sizing study on an 8:1 Mirage cluster: STP and
// OoO utilization versus Schedule Cache capacity.
func SCSize(ctx context.Context, s Scale) (*Report, error) {
	r := &Report{ID: "SC size",
		Notes: "Section 4.2: STP plateaus around 8KB while the SC's area/leakage keep growing; the paper picks 8KB"}
	r.Table.Title = "SC sizing study (8:1, SC-MPKI)"
	r.Table.Headers = []string{"SC capacity", "STP vs Homo-OoO", "OoO active"}

	// Every capacity runs the same mixes.
	mixes := core.RandomMixes(core.MixRandom, 8, s.MixesPerPoint, "scsize")
	groups := make([][][]string, len(SCSizes))
	for ci := range groups {
		groups[ci] = mixes
	}
	mrs, err := runGrid(ctx, s, groups,
		func(g, mi int) string { return fmt.Sprintf("scsize-%d-%d", SCSizes[g], mi) },
		func(g int, mix []string, seed string) (*core.MixResult, error) {
			cfg := s.baseConfig(seed)
			cfg.Topology = core.TopologyMirage
			cfg.Policy = core.PolicySCMPKI
			cfg.Benchmarks = mix
			cfg.SCCapacityBytes = SCSizes[g]
			return core.RunMixWithBaseline(context.Background(), cfg)
		})
	if err != nil {
		return nil, err
	}
	for ci, capBytes := range SCSizes {
		var stp, util float64
		for _, mr := range mrs[ci] {
			stp += mr.STP
			util += mr.OoOActiveFrac
		}
		k := float64(len(mrs[ci]))
		r.Table.AddRow(fmt.Sprintf("%dKB", capBytes>>10),
			stats.Pct(stp/k), stats.Pct(util/k))
	}
	return r, nil
}

// SCSizeNumbers returns the STP series for tests (indexed like SCSizes).
func SCSizeNumbers(ctx context.Context, s Scale) ([]float64, error) {
	rep, err := SCSize(ctx, s)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rep.Table.Rows))
	for i, row := range rep.Table.Rows {
		var v float64
		fmt.Sscanf(row[1], "%f%%", &v)
		out[i] = v / 100
	}
	return out, nil
}
