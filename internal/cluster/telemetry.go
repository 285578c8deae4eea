package cluster

import (
	"fmt"

	"repro/internal/ino"
)

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

// finalizeTelemetry publishes the run once, at its end: result gauges, the
// component layers' run totals, the arbitration totals, and everything the
// apps' timelines record, each over its window (DESIGN.md §6). Interval k
// spans wall cycles [k, k+1) times the interval length, warmup included; its
// trace events carry the wall cycle of its end.
func (c *Cluster) finalizeTelemetry(res *Result) {
	tel := c.cfg.Telemetry
	if !tel.Enabled() {
		return
	}
	reg, sink := tel.Reg(), tel.Sink()
	reg.Gauge("cluster.wall_cycles").Set(float64(res.WallCycles))
	reg.Gauge("cluster.run_cycles").Set(float64(res.RunCycles))
	reg.Gauge("cluster.ooo_active_cycles").Set(float64(res.OoOActiveCycles))
	reg.Gauge("cluster.total_energy_pj").Set(res.TotalEnergyPJ)
	reg.Gauge("cluster.bus_transfer_cycles").Set(float64(res.BusTransferCycles))
	reg.Gauge("cluster.ooo_owner").Set(float64(c.lastOwner))
	pol := "none"
	if c.cfg.Arbiter != nil {
		pol = c.cfg.Arbiter.Name()
	}
	reg.Counter("arbiter." + pol + ".grants").Add(c.grants)
	reg.Counter("arbiter." + pol + ".power_downs").Add(c.powerDowns)
	reg.Counter("cluster.migrations").Add(int64(res.Migrations))
	reg.Counter("cluster.drain_cycles").Add(res.BusTransferCycles - res.SCTransferCyclesTotal)
	reg.Counter("cluster.sc_transfer_cycles").Add(res.SCTransferCyclesTotal)
	squashHist := reg.Histogram("cluster.squash_penalty_cycles")
	tenureHist := reg.Histogram("arbiter.tenure_intervals")
	arbitrated := c.cfg.HasOoO
	oooTid := len(c.apps)
	if arbitrated {
		sink.NameThread(oooTid, "OoO producer")
	}
	ic := c.cfg.IntervalCycles
	var evictions int64
	for i, a := range c.apps {
		evictions += int64(a.ledger.evictions)
		prefix := fmt.Sprintf("core%d", i)
		sink.NameThread(i, prefix+":"+a.bench.Name)
		var insts, memoized, squashed, oooIntervals int64
		granted := -1 // boundary that opened the app's current OoO tenure
		for k, st := range a.timeline {
			end := int64(k+1) * ic
			insts += st.Insts
			memoized += st.MemoizedInsts
			if st.SquashedIters > 0 {
				squashed += st.SquashedIters
				if k >= c.warm {
					squashHist.Observe(st.SquashedIters * int64(ino.SquashRefillCycles))
				}
				if sink != nil {
					sink.Instant("squash", "replay", end, i, map[string]any{"iters": st.SquashedIters})
				}
			}
			if st.OnOoO {
				oooIntervals++
			}
			if sink != nil {
				sink.Count(prefix, end, i, map[string]any{"ipc": st.IPC, "sc_mpki": st.SCMPKI})
			}
			if !arbitrated {
				continue
			}
			// Seating after boundary k+1: the next interval's, or at the
			// end of the run the final seating, which a grant at the last
			// boundary of a cut-off run changed without an interval to
			// show it.
			seated := a.onOoO
			if k+1 < len(a.timeline) {
				seated = a.timeline[k+1].OnOoO
			}
			if !st.OnOoO && seated {
				granted = k + 1
				if sink != nil {
					sink.Instant("handoff", "arbitration", end, oooTid, map[string]any{"app": i, "name": a.bench.Name})
				}
			}
			// A tenure ends at an eviction, or at the end of the run. The
			// histogram counts those granted after warmup.
			if granted >= 0 && (!seated || k+1 == len(a.timeline)) {
				n := int64(k + 1 - granted)
				if granted > c.warm {
					tenureHist.Observe(n)
				}
				if sink != nil {
					sink.Complete("tenure:"+a.bench.Name, "arbitration", int64(granted)*ic, n*ic, oooTid, map[string]any{"app": i})
				}
				granted = -1
			}
		}
		reg.Counter(prefix + ".insts").Add(insts)
		reg.Counter(prefix + ".memoized_insts").Add(memoized)
		reg.Counter(prefix + ".squashed_iters").Add(squashed)
		reg.Counter(prefix + ".ooo_intervals").Add(oooIntervals)
		reg.Gauge(prefix + ".ipc").Set(res.Apps[i].IPC)
		a.inoC.PublishTelemetry(reg, prefix+".ino")
		a.oooC.PublishTelemetry(reg, prefix+".ooo")
		if a.sc != nil {
			a.sc.PublishTelemetry(reg, prefix+".sc")
		}
		a.mem.PublishTelemetry(reg, prefix+".mem")
	}
	reg.Counter("arbiter." + pol + ".evictions").Add(evictions)
	if c.producerSC != nil {
		c.producerSC.PublishTelemetry(reg, "producer.sc")
	}
}
