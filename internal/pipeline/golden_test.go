package pipeline

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// goldenCase builds one Request per invocation. The factory is called fresh
// for every run so stateful callbacks (seeded rngs behind LoadLatency /
// Mispredicts) start from the same point: an engine that draws from them in
// a different order or count cannot match the fixture.
type goldenCase struct {
	name string
	req  func() Request
}

// memLatPattern mimics the hierarchy: mostly L1 hits with occasional L2 and
// DRAM misses, drawn from a seeded stream.
func memLatPattern(seed uint64) func(int) int {
	rng := xrand.New(seed)
	lats := [6]int{2, 2, 2, 17, 17, 137}
	return func(int) int { return lats[rng.Intn(len(lats))] }
}

// mispredictPattern gives iteration i the i-th draw of a seeded stream,
// whatever order it is asked in: the engine resolves every outcome up front
// in iteration order, and the frozen reference asks as its branches
// resolve, so a younger branch that resolves first must still take its
// own iteration's draw.
func mispredictPattern(seed uint64, p float64) func(int) bool {
	rng := xrand.New(seed)
	var draws []bool
	return func(it int) bool {
		for len(draws) <= it {
			draws = append(draws, rng.Bool(p))
		}
		return draws[it]
	}
}

func fetchGatePattern(every, stall int) func(int) int {
	return func(it int) int {
		if it%every == 0 {
			return stall
		}
		return 0
	}
}

// recordedOrderFor derives a replayable order from the frozen reference
// engine, the way ooo.MeasureTrace derives schedules in production. Using
// the reference (not the live engine) keeps fixture definitions stable.
func recordedOrderFor(t *trace.Trace, span int) []uint16 {
	res := referenceRun(Request{
		Trace: t, Deps: trace.BuildDepGraph(t), Iterations: 8,
		Policy: Dataflow, Width: 3, Window: 128, ProbeSpan: span,
	})
	return res.IssueOrder
}

func goldenCases() []goldenCase {
	blocked := blockedChains(4, 10)
	serial := serialChain(30)
	r101, r102 := randomTrace(101), randomTrace(102)
	r103, r104 := randomTrace(103), randomTrace(104)
	r105, r106 := randomTrace(105), randomTrace(106)

	deps := func(t *trace.Trace) *trace.DepGraph { return trace.BuildDepGraph(t) }

	return []goldenCase{
		// --- Dataflow ---
		{"dataflow/blocked-w3-win128-span2", func() Request {
			return Request{Trace: blocked, Deps: deps(blocked), Iterations: 8,
				Policy: Dataflow, Width: 3, Window: 128, ProbeSpan: 2}
		}},
		{"dataflow/blocked-w3-win8", func() Request {
			return Request{Trace: blocked, Deps: deps(blocked), Iterations: 6,
				Policy: Dataflow, Width: 3, Window: 8}
		}},
		{"dataflow/serial-w2-win32", func() Request {
			return Request{Trace: serial, Deps: deps(serial), Iterations: 4,
				Policy: Dataflow, Width: 2, Window: 32}
		}},
		{"dataflow/rand101-mem-mispredict-gate", func() Request {
			return Request{Trace: r101, Deps: deps(r101), Iterations: 8,
				Policy: Dataflow, Width: 3, Window: 128, ProbeSpan: 2,
				MispredictPenalty: 12,
				LoadLatency:       memLatPattern(11),
				Mispredicts:       mispredictPattern(12, 0.3),
				FetchGate:         fetchGatePattern(3, 7)}
		}},
		{"dataflow/rand102-w1-win16-mem", func() Request {
			return Request{Trace: r102, Deps: deps(r102), Iterations: 5,
				Policy: Dataflow, Width: 1, Window: 16,
				LoadLatency: memLatPattern(21)}
		}},
		{"dataflow/rand103-w4-win64-span3", func() Request {
			return Request{Trace: r103, Deps: deps(r103), Iterations: 9,
				Policy: Dataflow, Width: 4, Window: 64, ProbeSpan: 3,
				MispredictPenalty: 12,
				Mispredicts:       mispredictPattern(31, 0.5)}
		}},
		{"dataflow/rand104-single-iter", func() Request {
			return Request{Trace: r104, Deps: deps(r104), Iterations: 1,
				Policy: Dataflow, Width: 3, Window: 128,
				LoadLatency: memLatPattern(41)}
		}},

		// --- ProgramOrder ---
		{"programorder/blocked-w3", func() Request {
			return Request{Trace: blocked, Deps: deps(blocked), Iterations: 8,
				Policy: ProgramOrder, Width: 3}
		}},
		{"programorder/serial-w3", func() Request {
			return Request{Trace: serial, Deps: deps(serial), Iterations: 4,
				Policy: ProgramOrder, Width: 3}
		}},
		{"programorder/rand101-mem-mispredict-gate", func() Request {
			return Request{Trace: r101, Deps: deps(r101), Iterations: 8,
				Policy: ProgramOrder, Width: 3,
				MispredictPenalty: 8,
				LoadLatency:       memLatPattern(51),
				Mispredicts:       mispredictPattern(52, 0.3),
				FetchGate:         fetchGatePattern(2, 9)}
		}},
		{"programorder/rand105-w2-mem", func() Request {
			return Request{Trace: r105, Deps: deps(r105), Iterations: 6,
				Policy: ProgramOrder, Width: 2,
				LoadLatency: memLatPattern(61)}
		}},
		{"programorder/rand106-w1-gate", func() Request {
			return Request{Trace: r106, Deps: deps(r106), Iterations: 3,
				Policy: ProgramOrder, Width: 1,
				FetchGate: fetchGatePattern(1, 4)}
		}},

		// --- RecordedOrder ---
		{"recordedorder/blocked-span2", func() Request {
			return Request{Trace: blocked, Deps: deps(blocked), Iterations: 8,
				Policy: RecordedOrder, Width: 3, ProbeSpan: 2,
				Order: recordedOrderFor(blocked, 2)}
		}},
		{"recordedorder/rand101-span2-mem", func() Request {
			return Request{Trace: r101, Deps: deps(r101), Iterations: 8,
				Policy: RecordedOrder, Width: 3, ProbeSpan: 2,
				Order:       recordedOrderFor(r101, 2),
				LoadLatency: memLatPattern(71)}
		}},
		{"recordedorder/rand103-span4-mispredict", func() Request {
			return Request{Trace: r103, Deps: deps(r103), Iterations: 8,
				Policy: RecordedOrder, Width: 3, ProbeSpan: 4,
				Order:             recordedOrderFor(r103, 4),
				MispredictPenalty: 8,
				Mispredicts:       mispredictPattern(81, 0.4)}
		}},
		{"recordedorder/rand106-span1-mem-gate", func() Request {
			return Request{Trace: r106, Deps: deps(r106), Iterations: 5,
				Policy: RecordedOrder, Width: 2, ProbeSpan: 1,
				Order:       recordedOrderFor(r106, 1),
				LoadLatency: memLatPattern(91),
				FetchGate:   fetchGatePattern(2, 6)}
		}},
	}
}

const goldenFile = "testdata/results.json"

// TestGoldenResults locks pipeline.Run to the fixtures captured from the
// pre-rewrite engine. Comparison is on marshalled bytes, so every Result
// field — cycle counts, the stall breakdown, FUBusy, IssueOrder — must match
// exactly. Regenerate (only with a known-equivalent engine) via -update.
func TestGoldenResults(t *testing.T) {
	got := make(map[string]json.RawMessage)
	for _, c := range goldenCases() {
		res := simulate(c.req())
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		got[c.name] = buf
	}

	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(got), goldenFile)
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing fixtures (run with -update on a known-good engine): %v", err)
	}
	want := make(map[string]json.RawMessage)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture count %d != case count %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no fixture", name)
			continue
		}
		var wc, gc []byte
		if wc, err = compactJSON(w); err != nil {
			t.Fatalf("%s: fixture: %v", name, err)
		}
		if gc, err = compactJSON(g); err != nil {
			t.Fatalf("%s: result: %v", name, err)
		}
		if string(wc) != string(gc) {
			t.Errorf("%s: result diverged from golden fixture\n got: %s\nwant: %s", name, gc, wc)
		}
	}
}

func compactJSON(raw json.RawMessage) ([]byte, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
