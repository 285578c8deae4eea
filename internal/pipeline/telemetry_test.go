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

// TestPooledRunCountsNothing: the package-level Run draws pooled engines
// and leaves their run totals at zero, so no engine that later publishes
// carries another caller's measurements.
func TestPooledRunCountsNothing(t *testing.T) {
	e := NewEngine()
	enginePool.Put(e)
	for seed := uint64(1); seed <= 4; seed++ {
		Run(randomRequest(seed)())
	}
	// Without -race the pool hands e back to this goroutine's Runs; with
	// it the pool may drop e, and e's totals must still be zero.
	var drawn []*Engine
	for i := 0; i < 4; i++ {
		p := enginePool.Get().(*Engine)
		drawn = append(drawn, p)
		if p.measures != 0 || p.memoHits != 0 || p.measuredCycles != 0 {
			t.Errorf("pooled engine counted %d measures, %d memo hits, %d cycles", p.measures, p.memoHits, p.measuredCycles)
		}
	}
	for _, p := range drawn {
		enginePool.Put(p)
	}
	if e.measures != 0 {
		t.Errorf("engine run through the pool counted %d measures", e.measures)
	}
}
