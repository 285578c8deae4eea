package invariant_test

// The audit sweep: drive full simulations across 200 seeds with the
// invariant audit attached and require zero violations. The sweep rotates
// every topology and every arbitration policy it takes, so each audit
// check — pipeline scheduling, arbitration decisions, OoO occupancy, energy
// closure — actually executes; a check that never runs proves nothing.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
)

// sweepCase derives the i'th sweep configuration. Topology and policy
// rotate on coprime strides so the cross product is covered; the mix and
// seed derive from i so no two cases simulate the same workload.
func sweepCase(i int) core.Config {
	topos := []core.Topology{
		core.TopologyMirage,
		core.TopologyTraditional,
		core.TopologyMirage, // extra weight: Mirage exercises the most machinery
		core.TopologyHomoInO,
		core.TopologyHomoOoO,
	}
	policies := []core.Policy{
		core.PolicySCMPKI,
		core.PolicyMaxSTP,
		core.PolicySCMPKIMaxSTP,
		core.PolicyFair,
		core.PolicySCMPKIFair,
		core.PolicySoftwareSCMPKI,
	}
	seed := fmt.Sprintf("audit-sweep-%03d", i)
	cfg := core.Config{
		Topology:       topos[i%len(topos)],
		Policy:         policies[i%len(policies)],
		Benchmarks:     core.RandomMixes(core.MixRandom, 3+i%3, 1, seed)[0],
		TargetInsts:    150_000,
		IntervalCycles: 15_000,
		Seed:           seed,
		Audit:          true,
	}
	switch cfg.Topology {
	case core.TopologyTraditional:
		if cfg.Policy == core.PolicySCMPKI || cfg.Policy == core.PolicySoftwareSCMPKI {
			cfg.Policy = "" // no Schedule Cache to rank by: the default, maxSTP
		}
		if i%4 == 3 {
			cfg.NumOoO = 2 // multi-slot arbitration paths
		}
	case core.TopologyHomoInO, core.TopologyHomoOoO:
		cfg.Policy = "" // no arbitrated OoO
	}
	return cfg
}

func TestAuditSweep200Seeds(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 24
	}
	jobs := make([]runner.Job[struct{}], n)
	for i := 0; i < n; i++ {
		cfg := sweepCase(i)
		jobs[i] = runner.Job[struct{}]{
			Name: cfg.Seed,
			Run: func() (struct{}, error) {
				// RunMix fails with the audit summary on any violation.
				_, err := core.RunMix(context.Background(), cfg)
				return struct{}{}, err
			},
		}
	}
	if _, err := runner.Run(context.Background(), runtime.GOMAXPROCS(0), jobs); err != nil {
		t.Fatalf("audit sweep: %v", err)
	}
}
