package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestWarmSweepFitsMemo runs the Figure 7/8/9b sweep three times in one
// process at the benchmark's scale and checks that the warm sweeps are
// answered from the process-wide pipeline memo. Each pass uses a distinct
// scale name, so the sweep cache misses and every pass simulates; only the
// memo carries over. Every run that repeats one of an earlier sweep must
// be a hit by the third sweep, which then answers all but a handful of its
// runs from the memo. If the sweep's working set overflows the memo's
// budget, shards are cleared mid-sweep and the warm hit share falls to
// about 0.8; if keys that share an admission slot keep displacing each
// other's first sighting, it is about 0.95. The logged shares make the
// test a probe of the memo's admission and fit.
func TestWarmSweepFitsMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("three bench-scale sweeps")
	}
	// benchScale is a copy of bench/plan.go's benchScale, sweep-cold's
	// sweep, which this package cannot import.
	benchScale := Scale{
		Name:           "bench",
		TargetInsts:    200_000,
		IntervalCycles: 20_000,
		MixesPerPoint:  2,
		NValues:        []int{4, 8},
	}
	ResetCaches()
	defer ResetCaches()
	var share float64
	for pass := 1; pass <= 3; pass++ {
		s := benchScale
		s.Name = fmt.Sprintf("bench-%d", pass)
		s.Telemetry = &telemetry.Telemetry{Registry: telemetry.NewRegistry()}
		if _, err := Reports(context.Background(), s, SweepIDs); err != nil {
			t.Fatal(err)
		}
		var hits, measures int64
		for name, v := range s.Telemetry.Registry.Snapshot().Counters {
			switch {
			case strings.HasSuffix(name, ".memo_hits"):
				hits += v
			case strings.HasSuffix(name, ".measures"):
				measures += v
			}
		}
		if measures == 0 {
			t.Fatalf("sweep %d published no measures", pass)
		}
		share = float64(hits) / float64(measures)
		t.Logf("sweep %d: %d of %d measurements from the memo (%.3f)", pass, hits, measures, share)
	}
	if share < 0.99 {
		t.Errorf("third sweep's memo hit share is %.3f, want >= 0.99: its repeats are not all admitted, or its working set overflows the memo", share)
	}
}
