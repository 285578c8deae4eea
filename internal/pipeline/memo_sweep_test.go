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

// engineTotals sums one sweep's engine counters over every core: the
// measurements, those the memo answered, and the measured and stall
// cycles a memo hit must report as a simulation would.
type engineTotals struct {
	measures, memoHits, cycles, data, fu, fetch int64
}

// TestMemoStatesAgree runs the Figure 7/8/9b sweep at the experiments'
// shape-test scale with the pipeline memo off (a zero budget, so it never
// stores an entry), cold (after memo.Reset), memo-warm, and under a budget
// that clears the memo every few hundred entries. Every pass must print
// the memo-off pass's reports byte for byte and sum to its engine
// counters exactly: the memos may only change how fast a result comes,
// never what it is. Each pass names its scale apart, so the sweep cache
// misses and every pass simulates.
func TestMemoStatesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("four tiny-scale sweeps")
	}
	sweep := func(name string) ([]byte, engineTotals) {
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
		var tot engineTotals
		for name, v := range s.Telemetry.Reg().Snapshot().Counters {
			for _, c := range []struct {
				suffix string
				sum    *int64
			}{
				{".measures", &tot.measures}, {".memo_hits", &tot.memoHits}, {".measured_cycles", &tot.cycles},
				{".stall_data_cycles", &tot.data}, {".stall_fu_cycles", &tot.fu}, {".stall_fetch_cycles", &tot.fetch},
			} {
				if strings.HasSuffix(name, c.suffix) {
					*c.sum += v
				}
			}
		}
		return b.Bytes(), tot
	}
	share := func(tot engineTotals) float64 { return float64(tot.memoHits) / float64(tot.measures) }
	experiments.ResetCaches()
	defer experiments.ResetCaches()
	_, restoreOff := pipeline.SetMemoBudget(0)
	off, offTot := sweep("memo-off")
	restoreOff()
	if offTot.memoHits != 0 || offTot.measures == 0 {
		t.Fatalf("the memo-off sweep answered %d of %d measurements from the memo, want 0 of some", offTot.memoHits, offTot.measures)
	}
	// agree reports the first report line where got differs from the
	// memo-off pass's, and any engine total that differs from its.
	agree := func(pass string, got []byte, tot engineTotals) {
		g, o := bytes.Split(got, []byte("\n")), bytes.Split(off, []byte("\n"))
		for i := range min(len(g), len(o)) {
			if !bytes.Equal(g[i], o[i]) {
				t.Errorf("%s sweep differs from the memo-off one at line %d: %s, want %s", pass, i+1, g[i], o[i])
				break
			}
		}
		if len(g) != len(o) {
			t.Errorf("%s sweep has %d report lines, the memo-off one %d", pass, len(g), len(o))
		}
		tot.memoHits = offTot.memoHits // the one total the passes may differ in
		if tot != offTot {
			t.Errorf("%s sweep's engine totals (measures, hits, cycles, data, fu, fetch) %+v, want the memo-off sweep's %+v", pass, tot, offTot)
		}
	}
	memo.Reset()
	cold, coldTot := sweep("memo-cold")
	agree("memo-cold", cold, coldTot)
	entries, _ := pipeline.MemoStats()
	warm, warmTot := sweep("memo-warm")
	agree("memo-warm", warm, warmTot)
	memo.Reset()
	gen, restore := pipeline.SetMemoBudget(96 << 10)
	defer restore()
	small, smallTot := sweep("memo-small")
	agree("small-budget", small, smallTot)
	t.Logf("memo hit shares: off %.3f, cold %.3f, warm %.3f, small budget %.3f; the cold sweep stored %d entries, and the small budget cleared the memo %d times",
		share(offTot), share(coldTot), share(warmTot), share(smallTot), entries, gen())
	if share(warmTot) <= share(coldTot) || gen() < uint64(entries/1000) {
		t.Errorf("the passes did not differ in memo state: warm share %.3f against cold %.3f, %d clears for %d entries",
			share(warmTot), share(coldTot), gen(), entries)
	}
}
