package chaos

import "testing"

func mustInjector(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInjectorRejectsBadProbabilities(t *testing.T) {
	for _, cfg := range []Config{
		{PLatency: -0.1},
		{PTransient: 1.5},
		{PStall: 2},
		{PPartial: -1},
	} {
		if _, err := NewInjector(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestPlanIsDeterministic(t *testing.T) {
	cfg := Config{
		Seed: "det", PLatency: 0.3, PTransient: 0.3, PStall: 0.2, PPartial: 0.1,
	}
	a, b := mustInjector(t, cfg), mustInjector(t, cfg)
	for n := 0; n < 200; n++ {
		fa := a.Plan("some-key", n, 0)
		fb := b.Plan("some-key", n, 0)
		if fa != fb {
			t.Fatalf("attempt %d diverged: %+v vs %+v", n, fa, fb)
		}
	}
	// A different seed must produce a different schedule (with 200 draws at
	// these rates, identical schedules mean the seed is being ignored).
	c := mustInjector(t, Config{
		Seed: "other", PLatency: 0.3, PTransient: 0.3, PStall: 0.2, PPartial: 0.1,
	})
	same := true
	for n := 0; n < 200 && same; n++ {
		same = a.Plan("some-key", n, 0) == c.Plan("some-key", n, 0)
	}
	if same {
		t.Fatal("schedules identical across different seeds")
	}
}

func TestPlanCoversEveryKind(t *testing.T) {
	in := mustInjector(t, Config{
		Seed: "cover", PLatency: 0.2, PTransient: 0.2, PStall: 0.2, PPartial: 0.2,
	})
	seen := map[Kind]int{}
	for n := 0; n < 500; n++ {
		f := in.Plan("k", n, 0)
		seen[f.Kind]++
		if f.Kind == KindLatency && f.Delay <= 0 {
			t.Fatalf("latency fault with non-positive delay: %+v", f)
		}
		if f.Kind == KindPartial && (f.Frac <= 0 || f.Frac >= 1) {
			t.Fatalf("partial fault with frac %v outside (0, 1)", f.Frac)
		}
	}
	for _, k := range []Kind{KindNone, KindLatency, KindTransient, KindStall, KindPartial} {
		if seen[k] == 0 {
			t.Errorf("kind %v never drawn in 500 attempts", k)
		}
	}
}

func TestFaultBudgetGuaranteesRecovery(t *testing.T) {
	in := mustInjector(t, Config{
		Seed: "budget", PTransient: 1, MaxFaultsPerKey: 3,
	})
	faults := 0
	for n := 0; n < 10; n++ {
		f := in.Plan("k", n, faults)
		if f.Kind.Failing() {
			faults++
		}
		if n < 3 && f.Kind != KindTransient {
			t.Fatalf("attempt %d: got %v, want transient while budget remains", n, f.Kind)
		}
		if n >= 3 && f.Kind.Failing() {
			t.Fatalf("attempt %d: %v injected past the %d-fault budget", n, f.Kind, 3)
		}
	}
}

func TestLatencyDoesNotConsumeBudget(t *testing.T) {
	in := mustInjector(t, Config{
		Seed: "lat", PLatency: 1, PTransient: 1, MaxFaultsPerKey: 1,
	})
	// PLatency=1 wins every draw; the budget must stay untouched, so the
	// kind never degrades to none.
	for n := 0; n < 20; n++ {
		if f := in.Plan("k", n, 0); f.Kind != KindLatency {
			t.Fatalf("attempt %d: got %v, want latency", n, f.Kind)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindNone, KindLatency, KindTransient, KindStall, KindPartial} {
		if k.String() == "kind?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}
