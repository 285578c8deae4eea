package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func seq(lo, hi int) []float64 {
	var xs []float64
	for i := lo; i <= hi; i++ {
		xs = append(xs, float64(i))
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs     []float64
		q      float64
		want   float64
		report bool
	}{
		{seq(1, 100), 0.90, 90, true},  // ten samples beyond
		{seq(1, 100), 0.95, 95, false}, // five beyond: refused
		{seq(1, 100), 0.99, 99, false},
		{seq(1, 1000), 0.99, 990, true},
		{seq(1, 20), 0.50, 10, true},
		{seq(1, 19), 0.50, 10, false}, // nine beyond
		{[]float64{3, 1, 2}, 1, 3, false},
	}
	for _, c := range cases {
		got, ok := percentile(c.xs, c.q)
		if got != c.want || ok != c.report {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", len(c.xs), c.q, got, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(1, 10), 2.75, 8.25},
		{seq(1, 4), 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 8}, 0.5, 9.5}, // the exclusive method extrapolates
		{[]float64{10.5, 9.5, 10, 11, 9}, 9.25, 10.75},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqr(seq(1, 10)); got != 5.5 {
		t.Errorf("iqr(1..10) = %v, want 5.5", got)
	}
}

func TestBoundsWithFloors(t *testing.T) {
	p50 := metric{Name: "p50_ms", Better: "lower", Bound: 0.10, Floor: 0.02}
	goodput := metric{Name: "goodput_rps", Better: "higher", Bound: 0.10}
	failFrac := metric{Name: "fail_frac", Better: "lower"}
	cases := []struct {
		m            metric
		base, change float64
		regressed    bool
	}{
		{p50, 1.0, 1.09, false},
		{p50, 1.0, 1.11, true},
		{p50, 1.0, 0.5, false},
		{p50, 0.1, 0.115, false}, // within the 0.02 ms floor though 15% worse
		{p50, 0.1, 0.125, true},
		{goodput, 100, 91, false},
		{goodput, 100, 89, true},
		{goodput, 100, 500, false},
		{failFrac, 0, 0, false},
		{failFrac, 0, 0.001, true}, // absolute 0: any failure regresses
	}
	for _, c := range cases {
		if got := c.m.regressed(c.base, c.change); got != c.regressed {
			t.Errorf("%s %v -> %v regressed = %v, want %v", c.m.Name, c.base, c.change, got, c.regressed)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"clear gain", parent, shift(parent, -20), "better"},
		{"within bound", parent, shift(parent, 5), "unchanged"},
		{"regression", parent, shift(parent, 15), "worse"},
		// A gain smaller than the parent's own spread is no gain.
		{"gain inside spread", parent, shift(parent, -0.5), "unchanged"},
		{"noisy parent", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, parent, "unresolved"},
		// Past the bound but within the parent's own spread: noise can
		// explain it, so it is unresolved, not worse.
		{"shift inside noisy spread", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, shift(parent, 20), "unresolved"},
		{"shift past noisy spread", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, shift(parent, 60), "worse"},
	}
	for _, c := range cases {
		if got := judge(lower, c.parent, c.change).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Nine wins in ten pairs suffice; eight do not.
	change := shift(parent, -20)
	change[0] = 200
	if got := judge(lower, parent, change).Verdict; got != "better" {
		t.Errorf("9/10 wins: verdict %q, want better", got)
	}
	change[1] = 200
	if got := judge(lower, parent, change).Verdict; got == "better" {
		t.Error("8/10 wins judged better")
	}
}

func TestTimedFrom(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name                string
		due, connFree, sent time.Duration
		wantStart, wantLate time.Duration
	}{
		// Idle connection: the timer overshoot is the generator's lateness,
		// not the system's latency.
		{"idle, late timer", 10 * ms, 5 * ms, 10*ms + 300*time.Microsecond, 10*ms + 300*time.Microsecond, 300 * time.Microsecond},
		{"idle, on time", 10 * ms, 5 * ms, 10 * ms, 10 * ms, 0},
		// Busy connection: the wait for it is the system's latency.
		{"busy", 10 * ms, 12 * ms, 12 * ms, 10 * ms, 0},
		{"sent early clamps", 10 * ms, 5 * ms, 9 * ms, 10 * ms, 0},
	}
	for _, c := range cases {
		start, late := timedFrom(c.due, c.connFree, c.sent)
		if start != c.wantStart || late != c.wantLate {
			t.Errorf("%s: timedFrom = %v, %v; want %v, %v", c.name, start, late, c.wantStart, c.wantLate)
		}
	}
}

// TestOpenLoopBusyWaitCountsAsLatency drives the generator against a server
// whose first reply takes 40 ms. The second request falls due 10 ms in, while
// the only connection is still busy, so its latency must include the 30 ms
// it waited for the connection.
func TestOpenLoopBusyWaitCountsAsLatency(t *testing.T) {
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			time.Sleep(40 * time.Millisecond)
		}
	}))
	defer srv.Close()
	lanes := newLanes(1)
	defer closeLanes(lanes)
	tg := &target{base: srv.URL, check: func(_, status int, _ http.Header, _ []byte) bool { return status == http.StatusOK }}
	reqs := []request{{path: "/", body: []byte("{}")}}
	ss := openLoop(tg, reqs, []int{0, 0}, []time.Duration{0, 10 * time.Millisecond}, lanes)
	if len(ss) != 2 || !ss[0].ok || !ss[1].ok {
		t.Fatalf("samples = %+v", ss)
	}
	second := ss[1]
	if second.idle || second.lateness != 0 || second.start != 10*time.Millisecond {
		t.Errorf("busy request: idle=%v lateness=%v start=%v; want timed from its due time", second.idle, second.lateness, second.start)
	}
	if second.latency() < 30*time.Millisecond {
		t.Errorf("busy request latency %v excludes its wait for the connection", second.latency())
	}
	if !ss[0].idle || ss[0].latency() < 40*time.Millisecond {
		t.Errorf("first request: idle=%v latency=%v", ss[0].idle, ss[0].latency())
	}
}

// TestHostFactor checks that latencies and goodput are reported at the
// reference host speed: a segment measured while the host ran at half speed
// (factor 0.5) reads as fast as the same work on the reference host.
func TestHostFactor(t *testing.T) {
	ms := time.Millisecond
	slow := atHost([]sample{{start: 0, end: 4 * ms, ok: true}, {start: 4 * ms, end: 8 * ms, ok: true}}, 0.5)
	fast := atHost([]sample{{start: 0, end: 2 * ms, ok: true}, {start: 2 * ms, end: 4 * ms, ok: true}}, 1)
	if a, b := latenciesMS(slow), latenciesMS(fast); a[0] != b[0] || a[1] != b[1] {
		t.Errorf("latencies at the reference speed: slow host %v, reference host %v", a, b)
	}
	lim := 3 * ms
	if a, b := goodput(slow, scaled(8*ms, 0.5), lim), goodput(fast, 4*ms, lim); a != b || a != 500 {
		t.Errorf("goodput at the reference speed: slow host %v, reference host %v, want 500", a, b)
	}
	hs := newHostSpeed()
	if f := hs.timed(func() {}); f <= 0 || math.IsInf(f, 0) || len(hs.log) != 2 {
		t.Errorf("host factor %v from %d probes, want a positive finite number from 2", f, len(hs.log))
	}
}
