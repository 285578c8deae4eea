package pipeline

import (
	"testing"

	"repro/internal/telemetry"
)

// TestEnginePublishTelemetry: PublishTelemetry reports one measure per
// Engine.Run, one memo hit per Run whose MemoHit was true, and cycle and
// stall totals equal to the sums over the returned Results.
func TestEnginePublishTelemetry(t *testing.T) {
	e := NewEngine()
	var want struct{ measures, hits, cycles, data, fu, fetch int64 }
	for seed := uint64(1); seed <= 6; seed++ {
		mk := randomRequest(seed)
		// Repeats of one request go through the shared memo, so the runs
		// mix simulations and memo hits.
		for rep := 0; rep < 3; rep++ {
			res := e.Run(mk())
			want.measures++
			if e.MemoHit() {
				want.hits++
			}
			want.cycles += int64(res.Cycles)
			want.data += int64(res.StallDataCycles)
			want.fu += int64(res.StallFUCycles)
			want.fetch += int64(res.StallFetchCycles)
		}
	}
	if want.hits == 0 || want.hits == want.measures {
		t.Fatalf("%d memo hits in %d runs: the check needs both kinds", want.hits, want.measures)
	}
	reg := telemetry.NewRegistry()
	e.PublishTelemetry(reg, "core0.ooo")
	got := reg.Snapshot().Counters
	for name, v := range map[string]int64{
		"core0.ooo.measures":           want.measures,
		"core0.ooo.memo_hits":          want.hits,
		"core0.ooo.measured_cycles":    want.cycles,
		"core0.ooo.stall_data_cycles":  want.data,
		"core0.ooo.stall_fu_cycles":    want.fu,
		"core0.ooo.stall_fetch_cycles": want.fetch,
	} {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	if len(got) != 6 {
		t.Errorf("published %d counters, want 6: %v", len(got), got)
	}
	e.PublishTelemetry(nil, "core0.ooo") // a nil registry is a no-op
}
