package pipeline_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// TestMemoStatesAgree runs the Figure 7/8/9b sweep at the experiments'
// shape-test scale cold (after memo.Reset), memo-warm, and under a
// pipeline-memo budget that clears the memo every few hundred entries, and
// requires byte-identical reports: the memos may only change how fast a
// result comes, never what it is. Each pass names its scale apart, so the
// sweep cache misses and every pass simulates.
func TestMemoStatesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("three tiny-scale sweeps")
	}
	// sweep returns the pass's reports and the share of its pipeline
	// measurements the memo answered.
	sweep := func(name string) ([]byte, float64) {
		t.Helper()
		// The shape tests' tiny scale (internal/experiments), which
		// TestReportsGolden pins.
		s := experiments.Scale{Name: name, TargetInsts: 700_000, IntervalCycles: 25_000,
			MixesPerPoint: 1, NValues: []int{4, 8}, TimelineIntervals: 80,
			Telemetry: telemetry.New()}
		reps, err := experiments.Reports(context.Background(), s, experiments.SweepIDs)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := experiments.WriteReportsJSON(&b, reps); err != nil {
			t.Fatal(err)
		}
		var hits, measures int64
		for name, v := range s.Telemetry.Reg().Snapshot().Counters {
			switch {
			case strings.HasSuffix(name, ".memo_hits"):
				hits += v
			case strings.HasSuffix(name, ".measures"):
				measures += v
			}
		}
		return b.Bytes(), float64(hits) / float64(measures)
	}
	experiments.ResetCaches()
	defer experiments.ResetCaches()
	cold, coldShare := sweep("memo-cold")
	entries, _ := pipeline.MemoStats()
	// same reports the first report line where got differs from cold.
	same := func(pass string, got []byte) {
		g, c := bytes.Split(got, []byte("\n")), bytes.Split(cold, []byte("\n"))
		for i := range min(len(g), len(c)) {
			if !bytes.Equal(g[i], c[i]) {
				t.Errorf("%s sweep differs from the cold one at line %d: %s, want %s", pass, i+1, g[i], c[i])
				return
			}
		}
		if len(g) != len(c) {
			t.Errorf("%s sweep has %d report lines, the cold one %d", pass, len(g), len(c))
		}
	}
	warm, warmShare := sweep("memo-warm")
	same("memo-warm", warm)
	memo.Reset()
	gen, restore := pipeline.SetMemoBudget(96 << 10)
	defer restore()
	small, smallShare := sweep("memo-small")
	same("small-budget", small)
	t.Logf("memo hit shares: cold %.3f, warm %.3f, small budget %.3f; the cold sweep stored %d entries, and the small budget cleared the memo %d times",
		coldShare, warmShare, smallShare, entries, gen())
	if warmShare <= coldShare || gen() < uint64(entries/1000) {
		t.Errorf("the passes did not differ in memo state: warm share %.3f against cold %.3f, %d clears for %d entries", warmShare, coldShare, gen(), entries)
	}
}
