package telemetry

// CoreMetrics is the instrument set a pipeline core (InO, OinO or OoO mode)
// feeds while measuring trace executions. Cores hold a nil *CoreMetrics when
// telemetry is detached and skip instrumentation entirely.
type CoreMetrics struct {
	// Measures counts measurement requests sent to the core's pipeline
	// engine (cache-cold or cache-warm re-measurements); MemoHits counts
	// those the engine answered from its result memo without simulating.
	// MeasuredCycles accumulates the measured cycles of all of them.
	Measures       *Counter
	MemoHits       *Counter
	MeasuredCycles *Counter
	// StallData/StallFU/StallFetch break measured issue stalls down by
	// cause: operand not ready, functional unit busy, front end gated.
	StallData  *Counter
	StallFU    *Counter
	StallFetch *Counter
	// Replays counts OinO schedule-replay iterations; SquashedIters the
	// replay iterations that misspeculated and re-ran in program order.
	Replays       *Counter
	SquashedIters *Counter
}

// NewCoreMetrics resolves a core's counters under prefix (e.g. "core3.ino").
// A nil registry yields nil, which detaches instrumentation.
func NewCoreMetrics(reg *Registry, prefix string) *CoreMetrics {
	if reg == nil {
		return nil
	}
	return &CoreMetrics{
		Measures:       reg.Counter(prefix + ".measures"),
		MemoHits:       reg.Counter(prefix + ".memo_hits"),
		MeasuredCycles: reg.Counter(prefix + ".measured_cycles"),
		StallData:      reg.Counter(prefix + ".stall_data_cycles"),
		StallFU:        reg.Counter(prefix + ".stall_fu_cycles"),
		StallFetch:     reg.Counter(prefix + ".stall_fetch_cycles"),
		Replays:        reg.Counter(prefix + ".replay_iters"),
		SquashedIters:  reg.Counter(prefix + ".squashed_iters"),
	}
}
