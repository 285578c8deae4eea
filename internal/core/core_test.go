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

func TestNewArbiter(t *testing.T) {
	for _, p := range []Policy{PolicySCMPKI, PolicyMaxSTP, PolicySCMPKIMaxSTP, PolicyFair, PolicySCMPKIFair} {
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
