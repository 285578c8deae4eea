package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Error("nil telemetry should be disabled")
	}
	tel.Reg().Counter("x").Add(5)
	tel.Reg().Gauge("g").Set(1)
	tel.Reg().Histogram("h").Observe(3)
	tel.Sink().Emit(TraceEvent{})
	tel.Sink().Complete("a", "b", 0, 1, 0, nil)
	tel.Sink().Instant("a", "b", 0, 0, nil)
	tel.Sink().Count("a", 0, 0, nil)
	tel.Sink().NameThread(0, "x")
	if tel.Sink().Len() != 0 {
		t.Error("nil sinks recorded something")
	}
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	g.Set(2)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments hold values")
	}
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{}\n" {
		t.Errorf("nil telemetry exported %q", got)
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("sim.migrations")
	c2 := r.Counter("sim.migrations")
	if c1 != c2 {
		t.Error("same name should return same counter")
	}
	c1.Add(3)
	c2.Inc()
	r.Gauge("sim.owner").Set(2.5)
	r.Histogram("sim.penalty").Observe(10)

	s := r.Snapshot()
	if s.Counters["sim.migrations"] != 4 {
		t.Errorf("counter = %d, want 4", s.Counters["sim.migrations"])
	}
	if s.Gauges["sim.owner"] != 2.5 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	hs := s.Histograms["sim.penalty"]
	if hs.Count != 1 || hs.Sum != 10 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	names := r.CounterNames()
	if len(names) != 1 || names[0] != "sim.migrations" {
		t.Errorf("counter names = %v", names)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-3, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11}, {1 << 40, 40},
	}
	for _, c := range cases {
		v := c.v
		if v < 0 {
			v = 0
		}
		if got := bucketOf(v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	h := &Histogram{}
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	h.Observe(1 << 60) // clamps into the last bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("count = %d", s.Count)
	}
	want := map[int64]int64{1: 1, 4: 2, 1 << (histBuckets - 1): 1}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
		delete(want, b.Le)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
}

func TestTraceSinkChromeFormat(t *testing.T) {
	ts := NewTraceSink()
	ts.NameThread(0, "hmmer")
	ts.Complete("ooo-tenure", "arbitration", 100, 50, 0, map[string]any{"app": 0})
	ts.Instant("squash", "replay", 120, 1, nil)
	ts.Count("ipc", 130, 0, map[string]any{"ipc": 1.25})

	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The export must be a JSON array of objects with the trace_event keys.
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	phases := map[string]bool{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph] = true
		if _, ok := ev["name"]; !ok {
			t.Errorf("event missing name: %v", ev)
		}
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if !phases[ph] {
			t.Errorf("missing phase %q", ph)
		}
	}
	// A nil sink still writes a valid (empty) array.
	var nilSink *TraceSink
	buf.Reset()
	if err := nilSink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var empty []any
	if err := json.Unmarshal(buf.Bytes(), &empty); err != nil || len(empty) != 0 {
		t.Errorf("nil sink export: %q err=%v", buf.String(), err)
	}
}

func TestConcurrentUse(t *testing.T) {
	tel := New()
	c := tel.Reg().Counter("n")
	h := tel.Reg().Histogram("h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				tel.Reg().Gauge("g").Set(float64(i))
				tel.Sink().Instant("e", "t", int64(i), w, nil)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("counter=%d hist=%d", c.Value(), h.Count())
	}
	if tel.Sink().Len() != 8000 {
		t.Errorf("sink=%d", tel.Sink().Len())
	}
}

// TestExportMetricsJSON pins the -metrics-out shape: the registry
// snapshot's three maps and nothing else.
func TestExportMetricsJSON(t *testing.T) {
	tel := New()
	tel.Reg().Counter("a").Add(1)
	tel.Reg().Gauge("g").Set(2)
	tel.Reg().Histogram("h").Observe(3)
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m["counters"] == nil || m["gauges"] == nil || m["histograms"] == nil {
		t.Errorf("metrics keys: %s", buf.String())
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 1 || back.Gauges["g"] != 2 || back.Histograms["h"].Sum != 3 {
		t.Errorf("metrics round-trip: %s", buf.String())
	}
}
