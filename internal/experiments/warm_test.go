package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/pipeline"
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
// other's first sighting, it is about 0.95.
//
// The third sweep's walks must likewise come from the memory hierarchy's
// walk memo (mem.WalkMemoStats), at least 0.99 of them, so no hierarchy
// builds its cache model. A sweep whose entries overflow the walk memo's
// budget clears it mid-sweep, and the hierarchies then tracked walk for
// real from there on. The logged shares and sizes make the test a probe of
// both memos' admission and fit.
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
	var share, walkShare float64
	var models int64
	for pass := 1; pass <= 3; pass++ {
		s := benchScale
		s.Name = fmt.Sprintf("bench-%d", pass)
		s.Telemetry = &telemetry.Telemetry{Registry: telemetry.NewRegistry()}
		before := mem.WalkMemoStats()
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
		entries, bytes := pipeline.MemoStats()
		t.Logf("sweep %d: %d of %d measurements from the memo (%.3f); it holds %d entries in %d bytes", pass, hits, measures, share, entries, bytes)
		after := mem.WalkMemoStats()
		walks, walkHits := after.Walks-before.Walks, after.Hits-before.Hits
		walkShare, models = float64(walkHits)/float64(walks), after.Models-before.Models
		t.Logf("sweep %d: %d of %d walks from the walk memo (%.3f), %d cache models built; the walk memo holds %d entries in %d bytes",
			pass, walkHits, walks, walkShare, models, after.Entries, after.Bytes)
	}
	if share < 0.99 {
		t.Errorf("third sweep's memo hit share is %.3f, want >= 0.99: its repeats are not all admitted, or its working set overflows the memo", share)
	}
	if walkShare < 0.99 || models != 0 {
		t.Errorf("third sweep's walk memo hit share is %.3f with %d cache models built, want >= 0.99 and none: its hierarchies are not tracked, or its entries overflow the walk memo", walkShare, models)
	}
}
