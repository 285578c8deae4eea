// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation, plus ablation benchmarks for the
// design choices DESIGN.md §5 calls out. Each benchmark regenerates its
// experiment at quick scale and reports the headline quantity as a custom
// metric, so `go test -bench=. -benchmem` reproduces the whole evaluation.
package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

var benchScale = experiments.QuickScale

// report runs an experiment once per benchmark iteration and prints the
// resulting table on the first iteration.
func report(b *testing.B, run func() (*experiments.Report, error)) *experiments.Report {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		r, err := run()
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	if rep != nil {
		b.Logf("\n%s", rep.String())
	}
	return rep
}

func BenchmarkTable1(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Table1(context.Background(), benchScale) })
}

func BenchmarkTable2(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Table2(), nil })
}

func BenchmarkFigure1(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure1(context.Background(), benchScale) })
}

func BenchmarkFigure2(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure2(context.Background(), benchScale) })
}

func BenchmarkFigure3b(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure3b(context.Background(), benchScale) })
}

func BenchmarkFigure5(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure5(context.Background(), benchScale) })
}

func BenchmarkFigure6(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure6(benchScale), nil })
}

func BenchmarkFigure7(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure7(context.Background(), benchScale) })
}

func BenchmarkFigure8(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure8(context.Background(), benchScale) })
}

func BenchmarkFigure9a(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure9a() })
}

func BenchmarkFigure9b(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure9b(context.Background(), benchScale) })
}

func BenchmarkFigure10(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure10(context.Background(), benchScale) })
}

func BenchmarkFigure11(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure11(context.Background(), benchScale) })
}

func BenchmarkFigure12(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure12(context.Background(), benchScale) })
}

func BenchmarkFigure13(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure13(context.Background(), benchScale) })
}

func BenchmarkFigure14(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure14(context.Background(), benchScale) })
}

func BenchmarkFigure15(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Figure15(context.Background(), benchScale) })
}

func BenchmarkHeadline(b *testing.B) {
	report(b, func() (*experiments.Report, error) { return experiments.Headline(context.Background(), benchScale) })
}

// --- Ablations (DESIGN.md §5) ---

// benchOneMix runs one 8:1 Mirage mix under SC-MPKI with overrides and
// reports STP and OoO-active fraction as custom metrics.
func benchOneMix(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	mix := core.RandomMixes(core.MixRandom, 8, 1, "ablation")[0]
	var stp, active float64
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Topology:       core.TopologyMirage,
			Policy:         core.PolicySCMPKI,
			Benchmarks:     mix,
			TargetInsts:    benchScale.TargetInsts,
			IntervalCycles: benchScale.IntervalCycles,
			Seed:           "ablation",
		}
		if mutate != nil {
			mutate(&cfg)
		}
		mr, err := core.RunMixWithBaseline(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		stp = mr.STP
		active = mr.OoOActiveFrac
	}
	b.ReportMetric(stp, "STP")
	b.ReportMetric(active, "OoO-active")
}

// BenchmarkClusterTelemetry measures the cost of the observability layer:
// the same 8:1 Mirage run with telemetry disabled (Off, the default nil
// fast path) and fully instrumented (On: registry + sampler + trace sink).
// When both sub-benchmarks run, the relative overhead is logged; the Off
// path is the one every production run takes, so the overhead must stay ≈0.
func BenchmarkClusterTelemetry(b *testing.B) {
	mix := core.RandomMixes(core.MixRandom, 8, 1, "telemetry-bench")[0]
	// Each iteration gets a fresh Telemetry, matching real usage (one
	// artifact per run); reusing one across iterations grows the retained
	// event buffer without bound and benchmarks the GC instead.
	run := func(b *testing.B, tel func() *telemetry.Telemetry) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := core.Config{
				Topology:       core.TopologyMirage,
				Policy:         core.PolicySCMPKI,
				Benchmarks:     mix,
				TargetInsts:    benchScale.TargetInsts,
				IntervalCycles: benchScale.IntervalCycles,
				Seed:           "telemetry-bench",
				Telemetry:      tel(),
			}
			if _, err := core.RunMix(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	var offNs, onNs float64
	b.Run("Off", func(b *testing.B) {
		run(b, func() *telemetry.Telemetry { return nil })
		offNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("On", func(b *testing.B) {
		run(b, telemetry.New)
		onNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if offNs == 0 || onNs == 0 {
		return // a sub-benchmark was filtered out; nothing to compare
	}
	b.Logf("telemetry overhead: %.2f%% (off %.0f ns/op, on %.0f ns/op)", (onNs/offNs-1)*100, offNs, onNs)
}

// BenchmarkAblationSCSize sweeps the Schedule Cache capacity around the
// paper's empirically chosen 8KB.
func BenchmarkAblationSCSize(b *testing.B) {
	for _, kb := range []int{2, 4, 8, 16, 32, 64} {
		kb := kb
		b.Run(stats.Pct(float64(kb)/8)+"-of-8KB", func(b *testing.B) {
			benchOneMix(b, func(c *core.Config) { c.SCCapacityBytes = kb << 10 })
		})
	}
}

// BenchmarkAblationInterval sweeps the arbitration interval (complements
// Figure 3b at the system level).
func BenchmarkAblationInterval(b *testing.B) {
	for _, iv := range []int64{10_000, 20_000, 40_000, 80_000, 160_000} {
		iv := iv
		b.Run(stats.F(float64(iv)/1000)+"kcyc", func(b *testing.B) {
			benchOneMix(b, func(c *core.Config) { c.IntervalCycles = iv })
		})
	}
}

// BenchmarkAblationPolicy compares every arbitration policy on the same
// Mirage hardware and mix.
func BenchmarkAblationPolicy(b *testing.B) {
	for _, pol := range []core.Policy{
		core.PolicySCMPKI, core.PolicySCMPKIMaxSTP, core.PolicySCMPKIFair, core.PolicyFair,
	} {
		pol := pol
		b.Run(string(pol), func(b *testing.B) {
			benchOneMix(b, func(c *core.Config) { c.Policy = pol })
		})
	}
}

// BenchmarkAblationSoftwareArbiter compares hardware-interval SC-MPKI
// arbitration against the OS-timeslice software variant (Section 3.2.4).
func BenchmarkAblationSoftwareArbiter(b *testing.B) {
	for _, pol := range []core.Policy{core.PolicySCMPKI, core.PolicySoftwareSCMPKI} {
		pol := pol
		b.Run(string(pol), func(b *testing.B) {
			benchOneMix(b, func(c *core.Config) { c.Policy = pol })
		})
	}
}

// BenchmarkAblationBroadcast measures the Section 6 multithreaded
// extension: homogeneous threads with and without SC broadcast.
func BenchmarkAblationBroadcast(b *testing.B) {
	threads := make([]string, 8)
	for i := range threads {
		threads[i] = "bzip2"
	}
	for _, bc := range []bool{false, true} {
		bc := bc
		name := "point-to-point"
		if bc {
			name = "broadcast"
		}
		b.Run(name, func(b *testing.B) {
			var stp float64
			for i := 0; i < b.N; i++ {
				mr, err := core.RunMixWithBaseline(context.Background(), core.Config{
					Topology:       core.TopologyMirage,
					Policy:         core.PolicySCMPKI,
					Benchmarks:     threads,
					BroadcastSC:    bc,
					TargetInsts:    benchScale.TargetInsts,
					IntervalCycles: benchScale.IntervalCycles,
					Seed:           "bcast-ablation",
				})
				if err != nil {
					b.Fatal(err)
				}
				stp = mr.STP
			}
			b.ReportMetric(stp, "STP")
		})
	}
}
