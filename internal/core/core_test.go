package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/program"
)

func tiny(topo Topology, mix []string) Config {
	return Config{
		Topology:       topo,
		Benchmarks:     mix,
		TargetInsts:    300_000,
		IntervalCycles: 20_000,
		Seed:           "core-test",
	}
}

// allPolicies is every policy NewArbiter builds.
var allPolicies = []Policy{PolicySCMPKI, PolicyMaxSTP, PolicySCMPKIMaxSTP, PolicyFair, PolicySCMPKIFair, PolicySoftwareSCMPKI}

func TestNewArbiter(t *testing.T) {
	for _, p := range allPolicies {
		a, err := NewArbiter(p)
		if err != nil || a == nil {
			t.Errorf("policy %q: %v", p, err)
		}
	}
	if _, err := NewArbiter("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunMixValidation(t *testing.T) {
	if _, err := RunMix(context.Background(), Config{Topology: TopologyHomoInO}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := RunMix(context.Background(), tiny(TopologyHomoInO, []string{"not-a-benchmark"})); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := RunMix(context.Background(), Config{Topology: Topology(99), Benchmarks: []string{"bzip2"}}); err == nil {
		t.Error("unknown topology accepted")
	}
	// Mirage clusters keep one producer: NumOoO > 1 must be rejected.
	cfg := tiny(TopologyMirage, []string{"bzip2", "gcc"})
	cfg.NumOoO = 2
	if _, err := RunMix(context.Background(), cfg); err == nil {
		t.Error("multi-producer Mirage accepted")
	}
}

// TestNormalize covers topology × policy × NumOoO: each pair's normalized
// policy and OoO count, or its refusal, and that normalizing a normalized
// Config changes nothing; and an unknown topology, an empty mix and an
// unknown benchmark are refused.
func TestNormalize(t *testing.T) {
	const refused Policy = "!" // no normalized policy is "!"
	policies := append([]Policy{""}, append(allPolicies, "bogus")...)
	// wantPolicy[topo][i] is what Normalize makes of policies[i].
	homo := []Policy{"", refused, refused, refused, refused, refused, refused, refused}
	wantPolicy := map[Topology][]Policy{
		TopologyMirage: {PolicySCMPKI, PolicySCMPKI, PolicyMaxSTP, PolicySCMPKIMaxSTP,
			PolicyFair, PolicySCMPKIFair, PolicySoftwareSCMPKI, refused},
		TopologyTraditional: {PolicyMaxSTP, refused, PolicyMaxSTP, PolicySCMPKIMaxSTP,
			PolicyFair, PolicySCMPKIFair, refused, refused},
		TopologyHomoInO: homo,
		TopologyHomoOoO: homo,
	}
	const refusedOoO = -1 // no normalized OoO count is negative
	numOoO := []int{-1, 0, 1, 3}
	// wantOoO[topo][i] is what Normalize makes of numOoO[i].
	single := []int{refusedOoO, 0, 1, refusedOoO}
	wantOoO := map[Topology][]int{
		TopologyMirage:      single,
		TopologyTraditional: {refusedOoO, 1, 1, 3},
		TopologyHomoInO:     single,
		TopologyHomoOoO:     single,
	}
	for topo, pols := range wantPolicy {
		for pi, p := range policies {
			for ni, n := range numOoO {
				in := Config{Topology: topo, Benchmarks: []string{"mcf"}, Policy: p, NumOoO: n}
				got, err := in.Normalize()
				wantP, wantN := pols[pi], wantOoO[topo][ni]
				if refuse := wantP == refused || wantN == refusedOoO; refuse != (err != nil) {
					t.Errorf("%v/%q/NumOoO %d: err %v, want refused %v", topo, p, n, err, refuse)
					continue
				}
				if err != nil {
					continue
				}
				if got.Policy != wantP || got.NumOoO != wantN {
					t.Errorf("%v/%q/NumOoO %d: normalized to %q/%d, want %q/%d", topo, p, n, got.Policy, got.NumOoO, wantP, wantN)
				}
				if again, err := got.Normalize(); err != nil || !reflect.DeepEqual(again, got) {
					t.Errorf("%v/%q/NumOoO %d: normalizing again gave %+v, %v", topo, p, n, again, err)
				}
			}
		}
	}
	for _, bad := range []Config{
		{Topology: Topology(99), Benchmarks: []string{"mcf"}},
		{Benchmarks: nil},
		{Benchmarks: []string{"mcf", "not-a-benchmark"}},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// TestAcceptedArmsGrantTheOoO runs every policy Normalize accepts on each
// topology with an arbitrated OoO and requires the OoO granted at some
// interval: a pair whose arbiter never grants it is a no-op Normalize
// must refuse (SC-MPKI on traditional, which has no Schedule Cache to rank
// by, was one).
func TestAcceptedArmsGrantTheOoO(t *testing.T) {
	for _, topo := range []Topology{TopologyMirage, TopologyTraditional} {
		for _, p := range append([]Policy{""}, allPolicies...) {
			cfg := tiny(topo, []string{"hmmer", "bzip2", "mcf"})
			cfg.Policy = p
			if _, err := cfg.Normalize(); err != nil {
				continue
			}
			mr, err := RunMix(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%v/%q: %v", topo, p, err)
			}
			if mr.Cluster.OoOActiveCycles == 0 {
				t.Errorf("%v/%q: Normalize accepts it, but the OoO was never granted", topo, p)
			}
		}
	}
}

func TestTopologyStrings(t *testing.T) {
	for _, topo := range []Topology{TopologyMirage, TopologyTraditional, TopologyHomoInO, TopologyHomoOoO} {
		if topo.String() == "Topology?" {
			t.Errorf("topology %d unnamed", topo)
		}
	}
}

func TestAreaOrdering(t *testing.T) {
	n := 8
	inO := Area(TopologyHomoInO, n)
	mirage := Area(TopologyMirage, n)
	trad := Area(TopologyTraditional, n)
	ooo := Area(TopologyHomoOoO, n)
	if !(inO < trad && trad < mirage && mirage < ooo) {
		t.Errorf("area ordering violated: InO=%.1f trad=%.1f mirage=%.1f OoO=%.1f",
			inO, trad, mirage, ooo)
	}
	if AreaK(TopologyTraditional, 5, 3) <= AreaK(TopologyTraditional, 5, 1) {
		t.Error("extra OoO cores must add area")
	}
}

func TestRandomMixes(t *testing.T) {
	hpd := map[string]bool{}
	for _, n := range program.ByCategory(program.HPD) {
		hpd[n] = true
	}
	for _, mix := range RandomMixes(MixHPD, 8, 3, "t") {
		if len(mix) != 8 {
			t.Fatalf("mix size %d", len(mix))
		}
		for _, name := range mix {
			if !hpd[name] {
				t.Errorf("HPD mix contains %s", name)
			}
		}
	}
	for _, mix := range RandomMixes(MixLPD, 4, 2, "t") {
		for _, name := range mix {
			if hpd[name] {
				t.Errorf("LPD mix contains %s", name)
			}
		}
	}
	// Determinism: same seed, same mixes.
	a := RandomMixes(MixRandom, 6, 2, "same")
	b := RandomMixes(MixRandom, 6, 2, "same")
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("mixes not deterministic")
			}
		}
	}
}

func TestRunMixHomoInO(t *testing.T) {
	mr, err := RunMix(context.Background(), tiny(TopologyHomoInO, []string{"bzip2", "namd"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.PerAppIPC) != 2 {
		t.Fatalf("per-app IPC count %d", len(mr.PerAppIPC))
	}
	for i, ipc := range mr.PerAppIPC {
		if ipc <= 0 || ipc > 3 {
			t.Errorf("app %d IPC %v", i, ipc)
		}
	}
	if mr.OoOActiveFrac != 0 {
		t.Error("Homo-InO reports OoO activity")
	}
	if mr.EnergyPJ <= 0 || mr.AreaMM2 <= 0 {
		t.Error("missing energy/area")
	}
}

func TestOoOReference(t *testing.T) {
	mr, err := RunMix(context.Background(), referenceConfig(Config{
		Benchmarks:  []string{"hmmer", "astar"},
		TargetInsts: 300_000,
		Seed:        "ref-test",
	}))
	if err != nil {
		t.Fatal(err)
	}
	ref := mr.PerAppIPC
	if len(ref) != 2 {
		t.Fatalf("ref count %d", len(ref))
	}
	if ref[0] <= ref[1] {
		t.Errorf("hmmer OoO IPC (%v) should beat astar (%v)", ref[0], ref[1])
	}
}

func TestCompareProducesAllConfigs(t *testing.T) {
	mix := []string{"hmmer", "bzip2", "gcc"}
	cmp, err := Compare(context.Background(), mix, Config{TargetInsts: 300_000, IntervalCycles: 20_000, Seed: "cmp"}, ArbitratorSet)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.HomoOoO == nil || cmp.HomoInO == nil {
		t.Fatal("missing homogeneous baselines")
	}
	if cmp.HomoOoO.STP != 1 {
		t.Errorf("Homo-OoO STP %v, want 1 by definition", cmp.HomoOoO.STP)
	}
	for _, pt := range ArbitratorSet {
		mr := cmp.ByPolicy[pt.Policy]
		if mr == nil {
			t.Fatalf("policy %s missing", pt.Policy)
		}
		if mr.STP <= 0 {
			t.Errorf("policy %s STP %v", pt.Policy, mr.STP)
		}
	}
	if cmp.HomoInO.STP >= 1 {
		t.Errorf("Homo-InO STP %v should be under 1", cmp.HomoInO.STP)
	}
}

func TestRunMixDeterministic(t *testing.T) {
	cfg := tiny(TopologyMirage, []string{"bzip2", "hmmer"})
	cfg.Policy = PolicySCMPKI
	a, err := RunMix(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerAppIPC {
		if a.PerAppIPC[i] != b.PerAppIPC[i] {
			t.Errorf("IPC differs across identical runs: %v vs %v", a.PerAppIPC, b.PerAppIPC)
		}
	}
	if a.EnergyPJ != b.EnergyPJ {
		t.Error("energy differs across identical runs")
	}

	// Compare and RunMixWithBaseline return identical results at Parallel 0
	// (GOMAXPROCS, the default), 1 (serial) and 2.
	type outcome struct {
		stp, energy    float64
		perApp, refIPC []float64
	}
	of := func(mr *MixResult, ref []float64) outcome {
		return outcome{mr.STP, mr.EnergyPJ, mr.PerAppIPC, ref}
	}
	var want []outcome
	for _, par := range []int{0, 1, 2} {
		cfg.Parallel = par
		mr, err := RunMixWithBaseline(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := Compare(context.Background(), cfg.Benchmarks, cfg, ArbitratorSet)
		if err != nil {
			t.Fatal(err)
		}
		got := []outcome{of(mr, mr.RefIPC), of(cmp.HomoOoO, cmp.RefIPC), of(cmp.HomoInO, cmp.RefIPC)}
		for _, arm := range ArbitratorSet {
			got = append(got, of(cmp.ByPolicy[arm.Policy], cmp.RefIPC))
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parallel %d: results differ from Parallel 0:\n got %+v\nwant %+v", par, got, want)
		}
	}
	if len(want[0].refIPC) != len(cfg.Benchmarks) {
		t.Errorf("RunMixWithBaseline RefIPC = %v, want one per app", want[0].refIPC)
	}
}
