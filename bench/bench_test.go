package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/experiments"
)

// TestShortWorkloads runs every workload at toy size, untraced and traced,
// in this process, and checks that every reply is correct and every metric
// is reported.
//
// The workloads run as parallel subtests: the experiment layer's cache
// resets are safe against a sweep in flight elsewhere, which settles
// regardless, and every sweep names its own scale.
func TestShortWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			shortWorkload(t, w, dir)
		})
	}
}

func shortWorkload(t *testing.T, w, dir string) {
	for _, traced := range []bool{false, true} {
		experiments.ResetCaches()
		rc := runConfig{workload: w, seed: 1, seconds: 1, short: true, trace: traced,
			traceOut: filepath.Join(dir, w+".trace.json"), workdir: dir}
		r, err := runWorkload(rc)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", w, traced, err)
		}
		if !r.Correct || r.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
				w, traced, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, m := range want {
			v, ok := r.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
			case !traced && v.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, v.Value)
			}
		}
		if !traced {
			continue
		}
		buf, err := os.ReadFile(rc.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(buf, &events); err != nil || len(events) == 0 {
			t.Errorf("%s: trace file is not a non-empty trace_event array: %v", w, err)
		}
		if r.Metrics["sim.insts"].Value == 0 && (w == "sweep-cold" || w == "run-cold") {
			t.Errorf("%s: traced pass simulated nothing", w)
		}
	}
}

// TestSweepTinyGolden drives sweep-cold's HTTP path at the tiny scale and
// compares the reply with the server package's golden sweep.
func TestSweepTinyGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "internal", "server", "testdata", "sweep_tiny.json"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := makePlan("sweep-cold", 1, sizeFor(1, true))
	if err != nil {
		t.Fatal(err)
	}
	p.sends = p.sends[:1]
	e, err := setup("sweep-cold", p, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ph := measure("sweep-cold", e, p, nil, newHostSpeed())
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	if failures(ph.closed) != 0 || !bytes.Equal(ph.bodies[0], golden) {
		t.Errorf("tiny sweep over HTTP differs from internal/server/testdata/sweep_tiny.json")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly this
// benchmark's workloads and metrics, within the limits its readers enforce,
// with bounds no narrower than compare's and at most 25%.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (bounded && (g.Bound < m.Bound || g.Bound > 0.25)) {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, g, m)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
