// Package core is the top-level Mirage Cores library: it assembles
// workloads, cluster configurations, arbitration policies and baselines
// into the system evaluated in the paper, and exposes the entry points the
// examples, experiments and benchmarks build on.
//
// The central object is Config: an n-InO-per-OoO cluster description plus a
// workload mix. RunMix simulates it; Baselines simulates the homogeneous
// reference CMPs; CompareArbitrators sweeps scheduling policies on the same
// mix.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/invariant"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Policy names an arbitration policy.
type Policy string

// The arbitration policies evaluated in Section 5.
const (
	PolicySCMPKI       Policy = "SC-MPKI"
	PolicyMaxSTP       Policy = "maxSTP"
	PolicySCMPKIMaxSTP Policy = "SC-MPKI+maxSTP"
	PolicyFair         Policy = "Fair"
	PolicySCMPKIFair   Policy = "SC-MPKI-fair"
	// PolicySoftwareSCMPKI is SC-MPKI arbitration in the OS layer
	// (Section 3.2.4): re-evaluated only at timeslice granularity.
	PolicySoftwareSCMPKI Policy = "software-SC-MPKI"
)

// SoftwarePollIntervals is how many hardware intervals one OS timeslice
// spans for PolicySoftwareSCMPKI (the paper's ~10ms vs 1M-cycle intervals).
const SoftwarePollIntervals = 10

// arbiters builds each policy's arbiter. Its keys are the policy names.
var arbiters = map[Policy]func() arbiter.Arbiter{
	PolicySCMPKI:       func() arbiter.Arbiter { return arbiter.NewSCMPKI() },
	PolicyMaxSTP:       func() arbiter.Arbiter { return arbiter.NewMaxSTP() },
	PolicySCMPKIMaxSTP: func() arbiter.Arbiter { return arbiter.NewSCMPKIMaxSTP() },
	PolicyFair:         func() arbiter.Arbiter { return arbiter.NewFair() },
	PolicySCMPKIFair:   func() arbiter.Arbiter { return arbiter.NewSCMPKIFair() },
	PolicySoftwareSCMPKI: func() arbiter.Arbiter {
		return arbiter.NewSoftware(arbiter.NewSCMPKI(), SoftwarePollIntervals)
	},
}

// NewArbiter constructs the named policy.
func NewArbiter(p Policy) (arbiter.Arbiter, error) {
	if mk, ok := arbiters[p]; ok {
		return mk(), nil
	}
	return nil, fmt.Errorf("core: unknown policy %q", p)
}

// Topology selects the CMP style.
type Topology uint8

const (
	// TopologyMirage is n InO (OinO-capable) cores plus 1 producer OoO.
	TopologyMirage Topology = iota
	// TopologyTraditional is n InO cores plus 1 OoO, no memoization.
	TopologyTraditional
	// TopologyHomoInO is n plain InO cores.
	TopologyHomoInO
	// TopologyHomoOoO is one OoO core per application.
	TopologyHomoOoO
)

// ParseTopology maps a topology's command-line and wire name (mirage, the
// default, traditional, homo-ino, homo-ooo) to the Topology.
func ParseTopology(name string) (Topology, error) {
	switch name {
	case "", "mirage":
		return TopologyMirage, nil
	case "traditional":
		return TopologyTraditional, nil
	case "homo-ino":
		return TopologyHomoInO, nil
	case "homo-ooo":
		return TopologyHomoOoO, nil
	}
	return 0, fmt.Errorf("unknown topology %q (want mirage, traditional, homo-ino or homo-ooo)", name)
}

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case TopologyMirage:
		return "Mirage"
	case TopologyTraditional:
		return "Traditional"
	case TopologyHomoInO:
		return "Homo-InO"
	case TopologyHomoOoO:
		return "Homo-OoO"
	}
	return "Topology?"
}

// Config describes one simulation: a topology, a workload mix, a policy and
// scale knobs.
type Config struct {
	Topology Topology
	// Benchmarks name the workload mix (one application per InO core).
	Benchmarks []string
	// Policy selects the arbitrator; empty means the topology's default
	// (see Normalize).
	Policy Policy

	// NumOoO is the OoO core count for TopologyTraditional (0 means 1);
	// e.g. the 5:3 Kumar-style CMP of Figure 14 uses NumOoO=3.
	NumOoO int

	// IntervalCycles, TargetInsts and SCCapacityBytes override the scaled
	// defaults (see cluster.Config); zero keeps defaults.
	IntervalCycles  int64
	TargetInsts     int64
	SCCapacityBytes int
	// PingPongEvery forces migrations every N intervals (Figure 3b).
	PingPongEvery int
	// BroadcastSC enables the Section 6 multithreaded extension: the
	// producer's schedules broadcast to every consumer SC, so one
	// memoization pass serves homogeneous threads cluster-wide.
	BroadcastSC bool
	// Seed names the deterministic random stream. Seeding is per-job: a
	// simulation derives every random decision it makes from this name
	// alone (via internal/xrand), and RunMix shares no mutable state
	// between calls, so a batch of simulations produces bit-identical
	// results whether the batch runs serially or on concurrent goroutines
	// (DESIGN.md §8). Helpers that launch several runs (Compare,
	// RunMixWithBaseline) derive distinct sub-seeds per run from this name.
	Seed string
	// Parallel is the worker budget for helpers that launch multiple
	// simulations from one call — Compare and RunMixWithBaseline fan their
	// independent RunMix invocations out to an internal/runner pool. As
	// everywhere else, 0 (the default) means GOMAXPROCS and 1 serial; RunMix
	// itself is always a single simulation regardless. Results are identical
	// at any setting; only wall-clock time changes.
	Parallel int
	// Telemetry, when non-nil, receives the run's metrics, published once
	// when the run ends, and its trace events (see internal/telemetry). It
	// applies to this configuration's own run only — baseline/reference
	// runs stay uninstrumented. A Telemetry may be shared by concurrent
	// runs: counters and histograms accumulate totals race-free; see
	// DESIGN.md §8 for the gauge/trace-ordering caveats.
	Telemetry *telemetry.Telemetry
	// Audit enables the invariant audit (DESIGN.md §11): cheap checks
	// threaded through the pipeline engine, the cores, the arbitration loop
	// and the energy accounting. Any violation fails the run with a
	// structured error; violation counts also land in Telemetry (when
	// attached) under audit.violations*. Off by default — the checks
	// roughly double the measurement-path cost.
	Audit bool
}

// MixResult is a simulated mix outcome with derived metrics.
type MixResult struct {
	Config  Config
	Cluster *cluster.Result
	// PerAppIPC is each application's end-to-end IPC.
	PerAppIPC []float64
	// RefIPC is each application's IPC alone on an OoO core, and STP the
	// mean speedup versus it (populated by RunMixWithBaseline; Compare and
	// the experiment harnesses fill STP only).
	RefIPC []float64
	STP    float64
	// EnergyPJ is total energy; AreaMM2 the CMP area.
	EnergyPJ float64
	AreaMM2  float64
	// OoOActiveFrac is the fraction of wall cycles the OoO was powered.
	OoOActiveFrac float64
}

// Normalize returns c with its topology's defaults filled in, or the first
// rule c breaks; it is the one home of those rules, and a normalized Config
// normalizes to itself. The mix names at least one known benchmark. Mirage
// defaults Policy to SC-MPKI. Traditional defaults it to maxSTP and NumOoO
// to 1, and refuses SC-MPKI and software-SC-MPKI: they rank apps by
// Schedule Cache misses, so with no Schedule Cache they never grant the
// OoO. A homogeneous topology takes no Policy, and only traditional takes
// more than one OoO.
func (c Config) Normalize() (Config, error) {
	if len(c.Benchmarks) == 0 {
		return c, errors.New("mix must name at least one benchmark")
	}
	for _, name := range c.Benchmarks {
		if program.ByName(name) == nil {
			return c, fmt.Errorf("unknown benchmark %q", name)
		}
	}
	switch c.Topology {
	case TopologyMirage:
		if c.Policy == "" {
			c.Policy = PolicySCMPKI
		}
	case TopologyTraditional:
		switch c.Policy {
		case "":
			c.Policy = PolicyMaxSTP
		case PolicySCMPKI, PolicySoftwareSCMPKI:
			return c, fmt.Errorf("policy %q never grants the OoO on topology %q (it ranks Schedule Cache misses, and there is no Schedule Cache)", c.Policy, c.Topology)
		}
		if c.NumOoO == 0 {
			c.NumOoO = 1
		}
	case TopologyHomoInO, TopologyHomoOoO:
		if c.Policy != "" {
			return c, fmt.Errorf("policy %q does not apply to topology %q (no arbitrated OoO)", c.Policy, c.Topology)
		}
	default:
		return c, fmt.Errorf("unknown topology %d", c.Topology)
	}
	if _, ok := arbiters[c.Policy]; !ok && c.Policy != "" {
		return c, fmt.Errorf("unknown policy %q", c.Policy)
	}
	switch {
	case c.NumOoO < 0:
		return c, fmt.Errorf("num_ooo %d is negative", c.NumOoO)
	case c.NumOoO > 1 && c.Topology != TopologyTraditional:
		return c, errors.New("num_ooo applies to the traditional topology only")
	}
	return c, nil
}

// clusterConfig lowers a normalized Config to the cluster layer.
func (c Config) clusterConfig() cluster.Config {
	cc := cluster.Config{
		Apps:            make([]*program.Benchmark, len(c.Benchmarks)),
		NumOoO:          c.NumOoO,
		IntervalCycles:  c.IntervalCycles,
		TargetInsts:     c.TargetInsts,
		SCCapacityBytes: c.SCCapacityBytes,
		PingPongEvery:   c.PingPongEvery,
		BroadcastSC:     c.BroadcastSC,
		Seed:            c.Seed + ":" + string(c.Policy),
		Telemetry:       c.Telemetry,
	}
	for i, name := range c.Benchmarks {
		cc.Apps[i] = program.ByName(name)
	}
	switch c.Topology {
	case TopologyMirage:
		cc.HasOoO = true
		cc.Memoize = true
	case TopologyTraditional:
		cc.HasOoO = true
	case TopologyHomoOoO:
		cc.AllOoO = true
	}
	if cc.HasOoO {
		cc.Arbiter = arbiters[c.Policy]()
	}
	return cc
}

// RunMix simulates one configuration. The context is checked on entry only:
// a single simulation is the unit of cancellation granularity (runs cannot
// be interrupted mid-flight), so ctx ending before the call starts returns
// ctx.Err() and a context that ends mid-run lets the run finish. Helpers
// that launch several runs (Compare, RunMixWithBaseline) stop scheduling
// further runs once ctx ends.
func RunMix(ctx context.Context, cfg Config) (*MixResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	cc := cfg.clusterConfig()
	var aud *invariant.Auditor
	if cfg.Audit {
		aud = invariant.New(cfg.Telemetry.Reg())
		cc.Audit = aud
	}
	cl, err := cluster.New(cc)
	if err != nil {
		return nil, err
	}
	res, err := cl.Run()
	if err != nil {
		return nil, err
	}
	if err := aud.Err(); err != nil {
		return nil, fmt.Errorf("core: %s/%s seed %q: %w", cfg.Topology, cfg.Policy, cfg.Seed, err)
	}
	mr := &MixResult{Config: cfg, Cluster: res, EnergyPJ: res.TotalEnergyPJ}
	for _, a := range res.Apps {
		mr.PerAppIPC = append(mr.PerAppIPC, a.IPC)
	}
	mr.AreaMM2 = AreaK(cfg.Topology, len(cfg.Benchmarks), cfg.NumOoO)
	if res.RunCycles > 0 {
		mr.OoOActiveFrac = float64(res.OoOActiveCycles) / float64(res.RunCycles)
	}
	if cfg.Topology == TopologyHomoOoO {
		mr.OoOActiveFrac = 1
	}
	return mr, nil
}

// Area returns the CMP area (mm^2) of a topology with n applications.
func Area(t Topology, n int) float64 { return AreaK(t, n, 1) }

// AreaK is Area with an explicit OoO count for traditional topologies.
func AreaK(t Topology, n, numOoO int) float64 {
	switch t {
	case TopologyMirage:
		return energy.ClusterArea(1, 0, n)
	case TopologyTraditional:
		return energy.ClusterArea(numOoO, n, 0)
	case TopologyHomoInO:
		return energy.ClusterArea(0, n, 0)
	case TopologyHomoOoO:
		return energy.ClusterArea(n, 0, 0)
	}
	return 0
}

// referenceConfig is the Homo-OoO reference of base: each of base's
// benchmarks alone on a private OoO core, whose per-app IPCs are the
// denominator of every speedup in Section 5. Only base's benchmarks,
// instruction budget, seed and run-wide modes that are not part of the
// reference's identity (today the invariant audit) carry over; the reference
// stays uninstrumented and unaffected by base's topology/policy, and its seed
// is base.Seed + ":ref".
func referenceConfig(base Config) Config {
	return Config{
		Topology:    TopologyHomoOoO,
		Benchmarks:  base.Benchmarks,
		TargetInsts: base.TargetInsts,
		Seed:        base.Seed + ":ref",
		Audit:       base.Audit,
	}
}

// runAll runs every configuration on an internal/runner pool of `parallel`
// workers (0 means GOMAXPROCS, 1 serial) and returns the results in cfgs
// order. A failing run's own error is returned, unwrapped from the runner's.
func runAll(ctx context.Context, parallel int, cfgs []Config) ([]*MixResult, error) {
	results, err := runner.Map(ctx, parallel, cfgs, nil,
		func(_ int, cfg Config) (*MixResult, error) { return RunMix(context.Background(), cfg) })
	var je *runner.JobError
	if errors.As(err, &je) {
		return nil, je.Err
	}
	return results, err
}

// RunMixWithBaseline runs cfg and its Homo-OoO reference and fills RefIPC
// and STP. The two simulations are independent (distinct seeds, no shared
// state), so they run on cfg.Parallel workers and the result is unchanged.
func RunMixWithBaseline(ctx context.Context, cfg Config) (*MixResult, error) {
	results, err := runAll(ctx, cfg.Parallel, []Config{cfg, referenceConfig(cfg)})
	if err != nil {
		return nil, err
	}
	mr := results[0]
	mr.RefIPC = results[1].PerAppIPC
	mr.STP = stats.STP(mr.PerAppIPC, mr.RefIPC)
	return mr, nil
}

// CompareArbitrators runs the same mix under each named policy/topology
// pair and returns results keyed by policy (plus the homogeneous
// references). This is the engine behind Figures 7, 8 and 9b.
type Comparison struct {
	Mix      []string
	RefIPC   []float64 // per-app Homo-OoO IPC
	HomoInO  *MixResult
	HomoOoO  *MixResult
	ByPolicy map[Policy]*MixResult
}

// Arm is one entry of a line-up: an arbitration policy on a topology. It is
// an alias of an unnamed struct so callers may write unkeyed literals such
// as {PolicySCMPKI, TopologyMirage} without tripping go vet's composites
// check.
type Arm = struct {
	Policy   Policy
	Topology Topology
}

// ArbitratorSet is the per-figure policy lineup: SC-MPKI and
// SC-MPKI+maxSTP on Mirage hardware, maxSTP on a traditional Het-CMP.
var ArbitratorSet = []Arm{
	{PolicySCMPKI, TopologyMirage},
	{PolicySCMPKIMaxSTP, TopologyMirage},
	{PolicyMaxSTP, TopologyTraditional},
}

// FairSet is the Figure 12/13 lineup.
var FairSet = []Arm{
	{PolicySCMPKIFair, TopologyMirage},
	{PolicyFair, TopologyTraditional},
	{PolicyMaxSTP, TopologyTraditional},
	{PolicySCMPKI, TopologyMirage},
}

// Compare runs the standard arbitrator line-up on one mix. The reference,
// Homo-InO and per-policy runs are independent simulations with disjoint
// seeds, so they fan out to base.Parallel workers; STPs are derived
// afterwards in the fixed serial order against the collated reference IPCs,
// keeping the Comparison bit-identical at any parallelism.
func Compare(ctx context.Context, mix []string, base Config, set []Arm) (*Comparison, error) {
	cmp := &Comparison{Mix: mix, ByPolicy: make(map[Policy]*MixResult)}

	refCfg := base
	refCfg.Topology = TopologyHomoOoO
	refCfg.Benchmarks = mix
	refCfg.Policy = ""
	inoCfg := refCfg
	inoCfg.Topology = TopologyHomoInO

	cfgs := []Config{refCfg, inoCfg}
	for _, pt := range set {
		cfg := base
		cfg.Benchmarks = mix
		cfg.Topology = pt.Topology
		cfg.Policy = pt.Policy
		cfgs = append(cfgs, cfg)
	}
	results, err := runAll(ctx, base.Parallel, cfgs)
	if err != nil {
		return nil, err
	}

	homoOoO := results[0]
	cmp.HomoOoO = homoOoO
	cmp.RefIPC = homoOoO.PerAppIPC
	homoOoO.STP = 1

	homoInO := results[1]
	homoInO.STP = stats.STP(homoInO.PerAppIPC, cmp.RefIPC)
	cmp.HomoInO = homoInO

	for si, pt := range set {
		mr := results[2+si]
		mr.STP = stats.STP(mr.PerAppIPC, cmp.RefIPC)
		cmp.ByPolicy[pt.Policy] = mr
	}
	return cmp, nil
}

// MixKind selects how RandomMixes composes workloads (Section 4.1: 10 mixes
// per single category plus 22 random mixes across categories).
type MixKind uint8

const (
	// MixHPD draws only from the HPD category.
	MixHPD MixKind = iota
	// MixLPD draws only from the LPD category.
	MixLPD
	// MixRandom draws from the whole suite.
	MixRandom
)

// RandomMixes builds `count` workload mixes of `size` applications each.
// Mix composition depends only on (kind, size, count, seed) — callers can
// materialise the same mix list before fanning simulations out in parallel.
func RandomMixes(kind MixKind, size, count int, seed string) [][]string {
	var pool []string
	switch kind {
	case MixHPD:
		pool = program.ByCategory(program.HPD)
	case MixLPD:
		pool = program.ByCategory(program.LPD)
	default:
		pool = program.Names()
	}
	rng := xrand.NewString("mix:" + seed)
	mixes := make([][]string, count)
	for m := range mixes {
		mix := make([]string, size)
		for i := range mix {
			mix[i] = pool[rng.Intn(len(pool))]
		}
		mixes[m] = mix
	}
	return mixes
}
