package cluster

import (
	"fmt"

	"repro/internal/ino"
	"repro/internal/telemetry"
)

// clusterTel holds the cluster's resolved telemetry instruments. It is nil
// when Config.Telemetry is nil/disabled, so the hot path pays one nil check.
// Individual instruments may still be nil (e.g. a Telemetry with only a
// trace sink); their methods are nil-safe no-ops.
type clusterTel struct {
	t *telemetry.Telemetry

	// Arbitration-boundary decisions (counter names carry the policy).
	grants     *telemetry.Counter
	powerDowns *telemetry.Counter
	evictions  *telemetry.Counter
	migrations *telemetry.Counter

	// Migration costs.
	scXferCycles *telemetry.Counter
	drainCycles  *telemetry.Counter

	// tenureHist is the distribution of OoO tenure lengths (intervals);
	// squashHist the distribution of per-interval squash penalties (cycles).
	tenureHist *telemetry.Histogram
	squashHist *telemetry.Histogram

	// oooOwner tracks the current OoO occupant (-1: power-gated).
	oooOwner *telemetry.Gauge

	apps []appTel

	// grantedAt[i] is the wall cycle app i was granted the OoO (-1: off).
	grantedAt []int64
	// oooTid is the trace-sink lane for producer-core events.
	oooTid int
}

// appTel is one application's instruments plus the previous cumulative
// values used to flush per-interval deltas.
type appTel struct {
	insts         *telemetry.Counter
	memoizedInsts *telemetry.Counter
	squashedIters *telemetry.Counter
	oooIntervals  *telemetry.Counter

	prevMemoized int64
	prevSquashed int64
}

// attachTelemetry resolves the cluster's own instruments. The component
// layers (cores, Schedule Caches, memory hierarchies) count in plain fields
// and publish their run totals once, in finalizeTelemetry.
func (c *Cluster) attachTelemetry() {
	tel := c.cfg.Telemetry
	if !tel.Enabled() {
		return
	}
	reg := tel.Reg()
	pol := "none"
	if c.cfg.Arbiter != nil {
		pol = c.cfg.Arbiter.Name()
	}
	ct := &clusterTel{
		t:            tel,
		grants:       reg.Counter("arbiter." + pol + ".grants"),
		powerDowns:   reg.Counter("arbiter." + pol + ".power_downs"),
		evictions:    reg.Counter("arbiter." + pol + ".evictions"),
		migrations:   reg.Counter("cluster.migrations"),
		scXferCycles: reg.Counter("cluster.sc_transfer_cycles"),
		drainCycles:  reg.Counter("cluster.drain_cycles"),
		tenureHist:   reg.Histogram("arbiter.tenure_intervals"),
		squashHist:   reg.Histogram("cluster.squash_penalty_cycles"),
		oooOwner:     reg.Gauge("cluster.ooo_owner"),
		apps:         make([]appTel, len(c.apps)),
		grantedAt:    make([]int64, len(c.apps)),
		oooTid:       len(c.apps),
	}
	sink := tel.Sink()
	for i, a := range c.apps {
		prefix := fmt.Sprintf("core%d", i)
		at := &ct.apps[i]
		at.insts = reg.Counter(prefix + ".insts")
		at.memoizedInsts = reg.Counter(prefix + ".memoized_insts")
		at.squashedIters = reg.Counter(prefix + ".squashed_iters")
		at.oooIntervals = reg.Counter(prefix + ".ooo_intervals")
		ct.grantedAt[i] = -1
		sink.NameThread(i, fmt.Sprintf("core%d:%s", i, a.bench.Name))
	}
	if c.cfg.HasOoO && !c.cfg.AllOoO {
		sink.NameThread(ct.oooTid, "OoO producer")
	}
	ct.oooOwner.Set(-1)
	c.tel = ct
}

// modeName labels an execution mode for trace events.
func modeName(m mode) string {
	switch m {
	case modeOoO:
		return "OoO"
	case modeOinO:
		return "OinO"
	}
	return "InO"
}

// measureEvent records one genuine pipeline measurement (cache-cold or warm
// re-measurement) as an instant event on the app's lane.
func (ct *clusterTel) measureEvent(a *app, m mode, ms *measurement, ts int64) {
	ct.t.Sink().Instant("measure:"+modeName(m), "measure", ts, a.idx, map[string]any{
		"cycles_per_iter": ms.cyclesPerIter,
	})
}

// flushInterval records the interval time-series sample, flushes per-app
// counter deltas and emits the per-core IPC/SC-MPKI counter tracks. Called
// at every interval boundary, warmup included (samples carry a warmup mark).
func (c *Cluster) flushInterval(interval int, warmup bool) {
	ct := c.tel
	if ct == nil {
		return
	}
	ts := c.wallNow
	sink := ct.t.Sink()
	smp := telemetry.IntervalSample{Run: c.cfg.Seed, Interval: interval, Warmup: warmup}
	if c.cfg.HasOoO && !c.cfg.AllOoO && len(c.oooOwners) > 0 {
		smp.OoOOwners = append([]int(nil), c.oooOwners...)
	}
	for i := range c.apps {
		a := c.apps[i]
		at := &ct.apps[i]
		if len(a.timeline) == 0 {
			continue
		}
		st := a.timeline[len(a.timeline)-1]
		at.insts.Add(st.Insts)
		if d := a.memoizedInsts - at.prevMemoized; d > 0 {
			at.memoizedInsts.Add(d)
		}
		at.prevMemoized = a.memoizedInsts
		if d := a.squashedIters - at.prevSquashed; d > 0 {
			at.squashedIters.Add(d)
			ct.squashHist.Observe(d * int64(ino.SquashRefillCycles))
			sink.Instant("squash", "replay", ts, i, map[string]any{"iters": d})
		}
		at.prevSquashed = a.squashedIters
		if st.OnOoO {
			at.oooIntervals.Inc()
		}
		smp.Apps = append(smp.Apps, telemetry.AppSample{
			App:    i,
			Name:   a.bench.Name,
			OnOoO:  st.OnOoO,
			IPC:    st.IPC,
			SCMPKI: st.SCMPKI,
			Insts:  st.Insts,
		})
		sink.Count(fmt.Sprintf("core%d", i), ts, i, map[string]any{
			"ipc":     st.IPC,
			"sc_mpki": st.SCMPKI,
		})
	}
	ct.t.Samp().Record(smp)
}

// resetAppDeltas re-bases per-interval delta tracking after the post-warmup
// counter reset zeroes the apps' cumulative fields.
func (ct *clusterTel) resetAppDeltas() {
	if ct == nil {
		return
	}
	for i := range ct.apps {
		ct.apps[i].prevMemoized = 0
		ct.apps[i].prevSquashed = 0
	}
}

// onDecision records one arbitration-boundary outcome.
func (ct *clusterTel) onDecision(picks []int) {
	if ct == nil {
		return
	}
	if len(picks) == 0 {
		ct.powerDowns.Inc()
		ct.oooOwner.Set(-1)
		return
	}
	ct.grants.Add(int64(len(picks)))
	ct.oooOwner.Set(float64(picks[0]))
}

// onGrant marks the start of an app's OoO tenure and emits the
// schedule-handoff instant on the producer lane.
func (ct *clusterTel) onGrant(a *app, ts int64) {
	if ct == nil {
		return
	}
	ct.migrations.Inc()
	ct.grantedAt[a.idx] = ts
	ct.t.Sink().Instant("handoff", "arbitration", ts, ct.oooTid, map[string]any{
		"app": a.idx, "name": a.bench.Name,
	})
}

// onEvict closes an app's OoO tenure: a complete event spanning the tenure
// on the producer lane plus the tenure-length histogram observation.
func (ct *clusterTel) onEvict(a *app, ts int64, intervalCycles int64) {
	if ct == nil {
		return
	}
	ct.evictions.Inc()
	start := ct.grantedAt[a.idx]
	ct.grantedAt[a.idx] = -1
	if start < 0 {
		return
	}
	dur := ts - start
	ct.t.Sink().Complete("tenure:"+a.bench.Name, "arbitration", start, dur, ct.oooTid,
		map[string]any{"app": a.idx})
	if intervalCycles > 0 {
		ct.tenureHist.Observe(dur / intervalCycles)
	}
}

// onMigrationCost accumulates a migration's bus costs.
func (ct *clusterTel) onMigrationCost(drain, scXfer int64) {
	if ct == nil {
		return
	}
	ct.drainCycles.Add(drain)
	ct.scXferCycles.Add(scXfer)
}

// finalizeTelemetry closes still-open tenures and publishes end-of-run
// result gauges and the component layers' run-total counters.
func (c *Cluster) finalizeTelemetry(res *Result) {
	ct := c.tel
	if ct == nil {
		return
	}
	for _, owner := range c.oooOwners {
		ct.onEvict(c.apps[owner], c.wallNow, c.cfg.IntervalCycles)
	}
	reg := ct.t.Reg()
	reg.Gauge("cluster.wall_cycles").Set(float64(res.WallCycles))
	reg.Gauge("cluster.run_cycles").Set(float64(res.RunCycles))
	reg.Gauge("cluster.ooo_active_cycles").Set(float64(res.OoOActiveCycles))
	reg.Gauge("cluster.total_energy_pj").Set(res.TotalEnergyPJ)
	reg.Gauge("cluster.bus_transfer_cycles").Set(float64(res.BusTransferCycles))
	for i, ar := range res.Apps {
		reg.Gauge(fmt.Sprintf("core%d.ipc", i)).Set(ar.IPC)
	}
	for i, a := range c.apps {
		prefix := fmt.Sprintf("core%d", i)
		a.inoC.PublishTelemetry(reg, prefix+".ino")
		a.oooC.PublishTelemetry(reg, prefix+".ooo")
		if a.sc != nil {
			a.sc.PublishTelemetry(reg, prefix+".sc")
		}
		a.mem.PublishTelemetry(reg, prefix+".mem")
	}
	if c.producerSC != nil {
		c.producerSC.PublishTelemetry(reg, "producer.sc")
	}
}
