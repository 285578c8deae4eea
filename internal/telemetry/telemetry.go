// Package telemetry is the simulator's observability layer, in two facets:
// a typed metrics registry (counters, gauges, log-scale histograms) and a
// trace sink that exports Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto. The per-interval arbitration record lives
// in the cluster's timeline, which a run publishes into both facets once,
// when it ends.
//
// The layer is zero-dependency and allocation-conscious. It is off by
// default: a nil *Telemetry (or nil *Registry/*TraceSink) disables
// everything, and every instrument method is safe to call on a nil receiver,
// so hot paths carry only a predictable nil-check when telemetry is disabled
// (verified by BenchmarkClusterTelemetryOff/On at the repo root).
//
// All instruments are safe for concurrent use: counters and gauges are
// atomics, the registry and sink serialize structural mutation behind
// mutexes, so clusters running in parallel goroutines may share one
// Telemetry.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric holding the latest observed value.
type Gauge struct {
	bits atomic.Uint64
}

// Set records v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the latest value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of log2 buckets: bucket k counts observations v
// with 2^(k-1) < v <= 2^k (bucket 0 counts v <= 1). 48 buckets cover every
// cycle count the simulator can produce.
const histBuckets = 48

// Histogram is a log-scale (power-of-two bucketed) distribution of int64
// observations — squash penalties, tenure lengths, transfer sizes.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// bucketOf maps an observation to its log2 bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one observation. Negative values clamp to zero. Safe on a
// nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 for a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations (0 for a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramBucket is one non-empty bucket of a histogram snapshot: Count
// observations v with v <= Le (and greater than the previous bucket's Le).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the exportable state of a Histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the non-empty buckets. Safe on a nil receiver (zero
// snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.n.Load(), Sum: h.sum.Load()}
	for k := range h.counts {
		if c := h.counts[k].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: int64(1) << uint(k), Count: c})
		}
	}
	return s
}

// bucketLo returns the exclusive lower bound of the bucket whose upper bound
// is le: observations v in that bucket satisfy lo < v <= le (bucket le==1
// covers [0, 1]).
func bucketLo(le int64) float64 {
	if le <= 1 {
		return 0
	}
	return float64(le) / 2
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution from the snapshot's log-scale buckets: the estimate of the
// ceil(q*count)-th smallest observation (the minimum for q = 0), produced by
// linear interpolation within its bucket. The true order statistic is
// guaranteed to lie in the same bucket, so the estimate is within a factor
// of 2 of the exact value; observations that sit exactly on a power-of-two
// bucket boundary are recovered exactly when alone in their bucket. An empty
// snapshot yields 0; q outside [0, 1] is clamped. Every estimate is finite.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Rank of the target order statistic, 1-based. q=0 selects the first
	// observation, q=1 the last.
	target := math.Ceil(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		lo := bucketLo(b.Le)
		prev := cum
		cum += b.Count
		if float64(cum) >= target {
			frac := (target - float64(prev)) / float64(b.Count)
			return lo + frac*(float64(b.Le)-lo)
		}
	}
	return float64(s.Buckets[len(s.Buckets)-1].Le)
}

// Quantile estimates the q-quantile of the live histogram (see
// HistogramSnapshot.Quantile). Safe on a nil receiver (0).
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// Registry is a typed, named metric store. Counter/Gauge/Histogram return
// the same instrument for the same name, so a caller that records as it
// goes resolves its instruments once, keeping hot paths free of map
// lookups; simulator components instead count in plain fields and add
// their run totals once, at the end of a run.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering if absent) the named counter. A nil registry
// returns nil, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if absent) the named gauge. A nil registry
// returns nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if absent) the named histogram. A nil
// registry returns nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of a registry, ready for JSON encoding.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value. A nil registry
// yields a zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}

// CounterNames returns the sorted registered counter names (tests and
// diagnostics).
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Telemetry bundles the two facets a simulation can feed. Either field may
// be nil to disable that facet; a nil *Telemetry disables both.
type Telemetry struct {
	Registry *Registry
	Trace    *TraceSink
}

// New returns a Telemetry with both facets enabled.
func New() *Telemetry {
	return &Telemetry{Registry: NewRegistry(), Trace: NewTraceSink()}
}

// Reg returns the registry (nil when disabled). Safe on a nil receiver.
func (t *Telemetry) Reg() *Registry {
	if t == nil {
		return nil
	}
	return t.Registry
}

// Sink returns the trace sink (nil when disabled). Safe on a nil receiver.
func (t *Telemetry) Sink() *TraceSink {
	if t == nil {
		return nil
	}
	return t.Trace
}

// Enabled reports whether any facet is live. Safe on a nil receiver.
func (t *Telemetry) Enabled() bool {
	return t != nil && (t.Registry != nil || t.Trace != nil)
}

// WriteMetrics JSON-encodes the registry snapshot to w. Safe on a nil
// receiver (an empty snapshot).
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Reg().Snapshot())
}

// WriteMetricsFile writes the registry snapshot to path (the -metrics-out
// flag of both command binaries).
func (t *Telemetry) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTraceFile writes the Chrome trace_event array to path (the -trace-out
// flag of both command binaries).
func (t *Telemetry) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Sink().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
