package main

// metric describes one number the benchmark reports.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; Floor is the
	// worsening always allowed, in Unit. Per-layer metrics have neither.
	Bound, Floor float64
	// Only names the workloads a supplementary metric is defined on (nil:
	// every workload).
	Only []string
}

// endToEnd are the metrics a user of miraged sees, measured with tracing
// off. Each is defined and non-zero on every workload, so they are the
// end-to-end metrics BENCHMARK.json lists. On sweep-cold a request is one
// cold sweep, so p50_ms is the sweep's wall clock.
//
// Bound is what `compare` judges alternated runs by. BENCHMARK.json's bound
// for the same metric gates sets of runs taken one after the other, so it
// also has to cover how far host speed drifts between them (README:
// "Noise"), and may be wider; it is never narrower.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, Floor: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Floor: 0.02},
	{Name: "goodput_rps", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "maxrss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// supplementary end-to-end metrics exist only on some workloads, or are
// zero when nothing fails, so BENCHMARK.json cannot list them. Results
// files carry them and `compare` judges them by the same rules.
var supplementary = []metric{
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.10, Only: []string{"run-cold"}},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.10, Floor: 0.1, Only: []string{"serve-warm", "fleet-warm"}},
	{Name: "sim_minsts_per_s", Unit: "Minst/s", Better: "higher", Bound: 0.10, Only: []string{"sweep-cold", "run-cold"}},
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
}

// perLayer come from the traced pass only. Every one is reported on every
// workload; a layer the workload does not exercise reads 0. Rung metrics
// time one call into a layer outside the server and are the same on every
// workload up to noise. The sim.* counts must repeat exactly, so their
// direction is nominal: a change that only speeds things up must not move
// them.
var perLayer = []metric{
	{Name: "program.suite_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.dataflow_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.inorder_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.replay_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.calls", Unit: "count", Better: "lower"},
	{Name: "pipeline.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "ooo.measure_us", Unit: "us", Better: "lower"},
	{Name: "ino.measure_us", Unit: "us", Better: "lower"},
	{Name: "ino.replay_us", Unit: "us", Better: "lower"},
	{Name: "cluster.run_s", Unit: "s", Better: "lower"},
	{Name: "cluster.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.runmix_s", Unit: "s", Better: "lower"},
	{Name: "core.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "experiments.sweep_serial_s", Unit: "s", Better: "lower"},
	{Name: "experiments.sweep_parallel_s", Unit: "s", Better: "lower"},
	{Name: "runner.speedup", Unit: "ratio", Better: "higher"},
	{Name: "runner.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "server.backend_ms", Unit: "ms", Better: "lower"},
	{Name: "server.miss_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.admit_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hit_us", Unit: "us", Better: "lower"},
	{Name: "server.disk_us", Unit: "us", Better: "lower"},
	{Name: "server.obs_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.disk_share", Unit: "ratio", Better: "lower"},
	{Name: "http.overhead_us", Unit: "us", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.reads", Unit: "count", Better: "lower"},
	{Name: "store.writes", Unit: "count", Better: "lower"},
	{Name: "telemetry.sink_events", Unit: "count", Better: "lower"},
	{Name: "telemetry.retained_mb", Unit: "MiB", Better: "lower"},
	{Name: "fleet.proxy_self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.owner_share", Unit: "ratio", Better: "higher"},
	{Name: "fleet.hedges", Unit: "count", Better: "lower"},
	{Name: "fleet.failovers", Unit: "count", Better: "lower"},
	{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.insts", Unit: "count", Better: "lower"},
	{Name: "sim.migrations", Unit: "count", Better: "lower"},
	{Name: "sim.sc_hits", Unit: "count", Better: "lower"},
	{Name: "sim.minsts_per_s", Unit: "Minst/s", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// metricByName finds a metric in any of the three tables.
func metricByName(name string) (metric, bool) {
	for _, tab := range [][]metric{endToEnd, supplementary, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// appliesTo reports whether m is defined on workload w.
func (m metric) appliesTo(w string) bool {
	if m.Only == nil {
		return true
	}
	for _, o := range m.Only {
		if o == w {
			return true
		}
	}
	return false
}
