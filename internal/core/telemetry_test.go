package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// TestPublishedCountersMatchResult checks that every cluster counter with a
// Result twin equals it, on every topology and policy: the counters and the
// Result read one ledger over one window (DESIGN.md §6). The OoO-share bound
// (AppResult.OoOCycles over the completion window can exceed 1) is not
// checked here: fixing it moves /v1/run replies and the bench digests, so it
// rides with the Homo-OoO reference change (ROADMAP item 11).
func TestPublishedCountersMatchResult(t *testing.T) {
	mix := []string{"bzip2", "bzip2", "hmmer", "mcf"}
	type tc struct {
		name string
		cfg  Config
	}
	var cases []tc
	for _, p := range []Policy{PolicySCMPKI, PolicyMaxSTP, PolicySCMPKIMaxSTP, PolicyFair, PolicySCMPKIFair, PolicySoftwareSCMPKI} {
		for _, bc := range []bool{false, true} {
			cfg := tiny(TopologyMirage, mix)
			cfg.Policy = p
			cfg.BroadcastSC = bc
			cases = append(cases, tc{fmt.Sprintf("Mirage/%s/broadcast=%v", p, bc), cfg})
		}
	}
	for _, n := range []int{1, 3} {
		cfg := tiny(TopologyTraditional, mix)
		cfg.Policy = PolicyMaxSTP
		cfg.NumOoO = n
		cases = append(cases, tc{fmt.Sprintf("Traditional/maxSTP/ooo=%d", n), cfg})
	}
	cases = append(cases,
		tc{"Homo-InO", tiny(TopologyHomoInO, mix)},
		tc{"Homo-OoO", tiny(TopologyHomoOoO, mix)})
	pingPong := tiny(TopologyHomoInO, mix[2:])
	pingPong.PingPongEvery = 1
	cases = append(cases, tc{"Homo-InO/ping-pong", pingPong})

	var migrated, broadcast bool
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Telemetry = telemetry.New()
			cfg.Audit = true
			mr, err := RunMix(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := mr.Cluster
			snap := cfg.Telemetry.Reg().Snapshot()
			migrations := snap.Counters["cluster.migrations"]
			drain := snap.Counters["cluster.drain_cycles"]
			scXfer := snap.Counters["cluster.sc_transfer_cycles"]
			if migrations != int64(res.Migrations) {
				t.Errorf("cluster.migrations = %d, Result.Migrations = %d", migrations, res.Migrations)
			}
			if scXfer != res.SCTransferCyclesTotal {
				t.Errorf("cluster.sc_transfer_cycles = %d, Result.SCTransferCyclesTotal = %d", scXfer, res.SCTransferCyclesTotal)
			}
			if drain+scXfer != res.BusTransferCycles {
				t.Errorf("cluster.drain_cycles + cluster.sc_transfer_cycles = %d, Result.BusTransferCycles = %d", drain+scXfer, res.BusTransferCycles)
			}
			if g := snap.Gauges["cluster.bus_transfer_cycles"]; g != float64(res.BusTransferCycles) {
				t.Errorf("cluster.bus_transfer_cycles gauge = %v, Result.BusTransferCycles = %d", g, res.BusTransferCycles)
			}
			migrated = migrated || res.Migrations > 0
			broadcast = broadcast || (cfg.BroadcastSC && res.SCTransferCyclesTotal > 0)
		})
	}
	if !migrated || !broadcast {
		t.Errorf("no case migrated (%v) or shipped a broadcast SC (%v): the checks above compared zeros", migrated, broadcast)
	}
}
