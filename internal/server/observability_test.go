// End-to-end tests for the serving observability layer (DESIGN.md §12):
// request IDs, the structured access log, span timelines exported at
// /debug/requests/trace, Prometheus exposition and /debug/statusz.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"repro/internal/core"
	"repro/internal/experiments"
)

// syncBuffer is a goroutine-safe log destination.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines parses every line of the JSON access log.
func logLines(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line is not valid JSON: %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// requestLine finds the access-log entry for a request ID.
func requestLine(t *testing.T, b *syncBuffer, id string) map[string]any {
	t.Helper()
	for _, m := range logLines(t, b) {
		if m["msg"] == "request" && m["request_id"] == id {
			return m
		}
	}
	t.Fatalf("no access-log line for request %s in:\n%s", id, b.String())
	return nil
}

// obsTestServer builds a fake-backed server logging JSON into buf.
func obsTestServer(t *testing.T, buf *syncBuffer, opt func(*Config)) *Server {
	t.Helper()
	return newTestServer(t, func(cfg *Config) {
		cfg.Logger = slog.New(slog.NewJSONHandler(buf, nil))
		cfg.Backend = fakeBackend{
			run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
				return fakeMixResult(cfg), nil
			},
			reports: func(ctx context.Context, sc experiments.Scale, ids []string) ([]*experiments.Report, error) {
				var reports []*experiments.Report
				for _, id := range ids {
					reports = append(reports, &experiments.Report{ID: id, Notes: "fake " + id})
				}
				return reports, nil
			},
		}
		if opt != nil {
			opt(cfg)
		}
	})
}

// postWithID is postJSON plus an X-Request-ID header.
func postWithID(t *testing.T, h http.Handler, path, body, id string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestColdSweepObservability is the acceptance-criteria e2e: one cold
// /v1/sweep must produce (a) an access-log line carrying the request ID with
// cache=miss and role=leader, (b) a span timeline at /debug/requests/trace
// containing admission, simulate and encode spans attributed to that
// request, and (c) a populated per-route latency histogram with a finite p99
// visible in the Prometheus exposition.
func TestColdSweepObservability(t *testing.T) {
	var buf syncBuffer
	srv := obsTestServer(t, &buf, nil)
	const reqID = "e2e-sweep-1"

	rec := postWithID(t, srv, "/v1/sweep", `{"scale":"tiny"}`, reqID)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != reqID {
		t.Errorf("X-Request-ID echo = %q, want %q", got, reqID)
	}

	// (a) the access-log line.
	line := requestLine(t, &buf, reqID)
	if line["route"] != "sweep" || line["cache"] != "miss" || line["role"] != "leader" {
		t.Errorf("access log = %v, want route=sweep cache=miss role=leader", line)
	}
	if line["status"] != float64(http.StatusOK) {
		t.Errorf("logged status = %v, want 200", line["status"])
	}
	if b, ok := line["bytes"].(float64); !ok || b <= 0 {
		t.Errorf("logged bytes = %v, want > 0", line["bytes"])
	}
	if _, ok := line["queue_wait_us"].(float64); !ok {
		t.Errorf("leader line missing queue_wait_us: %v", line)
	}
	if d, ok := line["deadline_ms"].(float64); !ok || d <= 0 {
		t.Errorf("logged deadline_ms = %v, want > 0", line["deadline_ms"])
	}
	if _, hasFault := line["fault"]; hasFault {
		t.Errorf("fault field on a fault-free request: %v", line)
	}

	// (b) the span timeline.
	trec := get(t, srv, "/debug/requests/trace")
	if trec.Code != http.StatusOK {
		t.Fatalf("trace status = %d", trec.Code)
	}
	var events []map[string]any
	if err := json.Unmarshal(trec.Body.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	spans := map[string]bool{}
	for _, ev := range events {
		args, _ := ev["args"].(map[string]any)
		if args != nil && args["request_id"] == reqID {
			if name, _ := ev["name"].(string); name != "" {
				spans[name] = true
			}
		}
	}
	for _, want := range []string{"request", "admission", "simulate", "encode", "write", "cache_lookup", "singleflight_wait"} {
		if !spans[want] {
			t.Errorf("span %q missing from trace for %s (have %v)", want, reqID, spans)
		}
	}

	// (c) the per-route latency histogram, in Prometheus exposition.
	mrec := get(t, srv, "/v1/metrics?format=prometheus")
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", mrec.Code)
	}
	prom := mrec.Body.String()
	if !strings.Contains(prom, "# TYPE server_http_latency_us_sweep histogram") {
		t.Errorf("prometheus exposition missing sweep latency histogram:\n%s", prom)
	}
	if !strings.Contains(prom, "server_http_latency_us_sweep_count 1") {
		t.Errorf("sweep latency histogram not populated:\n%s", prom)
	}
	p99 := srv.reg.Histogram("server.http.latency_us.sweep").Quantile(0.99)
	if p99 <= 0 || math.IsInf(p99, 0) || math.IsNaN(p99) {
		t.Errorf("sweep latency p99 = %v, want finite and > 0", p99)
	}
}

func TestRequestIDGenerationAndValidation(t *testing.T) {
	var buf syncBuffer
	srv := obsTestServer(t, &buf, nil)

	// No header: a 16-hex-char ID is generated and echoed.
	rec := postWithID(t, srv, "/v1/run", `{"mix":["bzip2"]}`, "")
	id := rec.Header().Get("X-Request-ID")
	if len(id) != 16 {
		t.Errorf("generated ID = %q, want 16 hex chars", id)
	}
	for _, c := range id {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Errorf("generated ID %q contains non-hex %q", id, c)
		}
	}
	requestLine(t, &buf, id) // it must appear in the log

	// A sane client ID is honored.
	rec = postWithID(t, srv, "/v1/run", `{"mix":["bzip2"]}`, "client-id-42")
	if got := rec.Header().Get("X-Request-ID"); got != "client-id-42" {
		t.Errorf("client ID not honored: %q", got)
	}

	// Hostile IDs (spaces, quotes, overlong) are replaced, not echoed.
	for _, bad := range []string{"has space", `has"quote`, strings.Repeat("x", 65)} {
		rec = postWithID(t, srv, "/v1/run", `{"mix":["bzip2"]}`, bad)
		got := rec.Header().Get("X-Request-ID")
		if got == bad || len(got) != 16 {
			t.Errorf("hostile ID %q: echoed %q, want a generated one", bad, got)
		}
	}
}

func TestAccessLogCacheOutcomes(t *testing.T) {
	var buf syncBuffer
	srv := obsTestServer(t, &buf, nil)
	body := `{"mix":["bzip2"],"seed":"outcomes"}`

	postWithID(t, srv, "/v1/run", body, "first")
	postWithID(t, srv, "/v1/run", body, "second")

	first := requestLine(t, &buf, "first")
	if first["cache"] != "miss" || first["role"] != "leader" {
		t.Errorf("cold request = %v, want cache=miss role=leader", first)
	}
	second := requestLine(t, &buf, "second")
	if second["cache"] != "hit" {
		t.Errorf("repeat request = %v, want cache=hit", second)
	}
	if second["leader"] != "first" {
		t.Errorf("hit line leader = %v, want attribution to %q", second["leader"], "first")
	}
	if _, hasRole := second["role"]; hasRole {
		t.Errorf("hit line has role = %v, want none", second["role"])
	}
}

func TestAccessLogWaiterOutcome(t *testing.T) {
	var buf syncBuffer
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := obsTestServer(t, &buf, func(cfg *Config) {
		cfg.Backend = fakeBackend{
			run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
				close(entered)
				<-release
				return fakeMixResult(cfg), nil
			},
		}
	})
	body := `{"mix":["bzip2"],"seed":"waiter"}`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postWithID(t, srv, "/v1/run", body, "leader-req")
	}()
	<-entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		postWithID(t, srv, "/v1/run", body, "waiter-req")
	}()
	// Wait for the second request to register, then give it a beat to join
	// the in-progress flight before letting the backend finish.
	waitFor(t, "both requests in flight", func() bool {
		srv.inflightMu.Lock()
		defer srv.inflightMu.Unlock()
		return len(srv.inflight) == 2
	})
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	leader := requestLine(t, &buf, "leader-req")
	if leader["role"] != "leader" || leader["cache"] != "miss" {
		t.Errorf("leader line = %v", leader)
	}
	waiter := requestLine(t, &buf, "waiter-req")
	if waiter["role"] != "waiter" || waiter["cache"] != "miss" {
		t.Errorf("waiter line = %v, want role=waiter cache=miss", waiter)
	}
	if waiter["leader"] != "leader-req" {
		t.Errorf("waiter leader = %v, want leader-req", waiter["leader"])
	}
}

// TestRequestEventMatchesAccessLog: for a cold leader, a waiter on its
// flight and a later memory hit, the "request" trace event's args carry
// exactly the fields of that request's access-log line, and the request's
// steps sit on its own lane of the ring.
func TestRequestEventMatchesAccessLog(t *testing.T) {
	var buf syncBuffer
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := obsTestServer(t, &buf, func(cfg *Config) {
		cfg.Backend = fakeBackend{
			run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
				close(entered)
				<-release
				return fakeMixResult(cfg), nil
			},
		}
	})
	body := `{"mix":["bzip2"],"seed":"one-field-list"}`
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		postWithID(t, srv, "/v1/run", body, "cold-leader")
	}()
	<-entered
	go func() {
		defer wg.Done()
		postWithID(t, srv, "/v1/run", body, "flight-waiter")
	}()
	waitFor(t, "both requests in flight", func() bool {
		srv.inflightMu.Lock()
		defer srv.inflightMu.Unlock()
		return len(srv.inflight) == 2
	})
	time.Sleep(50 * time.Millisecond) // let the waiter join the flight
	close(release)
	wg.Wait()
	postWithID(t, srv, "/v1/run", body, "memory-hit")

	var events []map[string]any
	if err := json.Unmarshal(get(t, srv, "/debug/requests/trace").Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id, cache, role string
		steps           []string
	}{
		{"cold-leader", "miss", "leader", []string{"cache_lookup", "singleflight_wait", "admission", "simulate", "encode", "write"}},
		{"flight-waiter", "miss", "waiter", []string{"cache_lookup", "singleflight_wait", "write"}},
		{"memory-hit", "hit", "", []string{"cache_lookup", "write"}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			line := requestLine(t, &buf, tc.id)
			if line["cache"] != tc.cache || (tc.role != "" && line["role"] != tc.role) {
				t.Fatalf("access log = %v, want cache=%s role=%s", line, tc.cache, tc.role)
			}
			for _, k := range []string{"time", "level", "msg"} {
				delete(line, k) // the log record's own envelope
			}
			var request map[string]any
			lane := -1.0
			steps := map[string]bool{}
			for _, ev := range events {
				args, _ := ev["args"].(map[string]any)
				if args["request_id"] != tc.id {
					continue
				}
				if ev["name"] == "request" {
					request, lane = args, ev["tid"].(float64)
				} else {
					steps[ev["name"].(string)] = true
				}
			}
			if request == nil {
				t.Fatalf("no request event for %s", tc.id)
			}
			if !reflect.DeepEqual(request, line) {
				t.Errorf("request event args differ from the access-log line:\n args %v\n line %v", request, line)
			}
			for _, ev := range events {
				if args, _ := ev["args"].(map[string]any); args["request_id"] == tc.id && ev["tid"] != lane {
					t.Errorf("%s event on lane %v, want the request's lane %v", ev["name"], ev["tid"], lane)
				}
			}
			for _, want := range tc.steps {
				if !steps[want] {
					t.Errorf("step %q missing (have %v)", want, steps)
				}
			}
		})
	}
}

func TestHealthzFields(t *testing.T) {
	srv := newTestServer(t, nil)
	rec := get(t, srv, "/v1/healthz")
	var h struct {
		Status         string  `json:"status"`
		ActiveRequests int     `json:"active_requests"`
		Draining       bool    `json:"draining"`
		UptimeSeconds  float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if h.Status != "ok" || h.Draining || h.ActiveRequests != 0 {
		t.Errorf("healthz = %+v, want ok/not-draining/0 active", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v, want >= 0", h.UptimeSeconds)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = get(t, srv, "/v1/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Errorf("post-shutdown healthz = %+v, want draining", h)
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	var buf syncBuffer
	srv := obsTestServer(t, &buf, nil)
	postWithID(t, srv, "/v1/run", `{"mix":["bzip2"]}`, "")

	// Default: the native JSON dump.
	rec := get(t, srv, "/v1/metrics")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q", ct)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Error("default metrics body is not valid JSON")
	}

	// ?format=prometheus selects text exposition.
	rec = get(t, srv, "/v1/metrics?format=prometheus")
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	out := rec.Body.String()
	if !strings.Contains(out, "# TYPE server_requests counter") {
		t.Errorf("missing requests counter:\n%s", out)
	}
	// No duplicate TYPE declarations (a scraper may reject the whole page).
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if seen[line] {
				t.Errorf("duplicate TYPE line %q", line)
			}
			seen[line] = true
		}
	}

	// An Accept header asking for text/plain selects exposition too.
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	arec := httptest.NewRecorder()
	srv.ServeHTTP(arec, req)
	if ct := arec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Accept negotiation Content-Type = %q", ct)
	}
}

// brokenWriter fails every body write, simulating a client that vanished
// mid-response.
type brokenWriter struct {
	h    http.Header
	code int
}

func (w *brokenWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *brokenWriter) WriteHeader(code int)      { w.code = code }
func (w *brokenWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("client went away") }

func TestMetricsWriteErrorLoggedAndCounted(t *testing.T) {
	var buf syncBuffer
	srv := obsTestServer(t, &buf, nil)
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	srv.ServeHTTP(&brokenWriter{}, req)
	if got := srv.reg.Counter("server.metrics.write_errors").Value(); got != 1 {
		t.Errorf("write_errors counter = %d, want 1", got)
	}
	if !strings.Contains(buf.String(), "metrics write failed") {
		t.Errorf("write failure not logged:\n%s", buf.String())
	}
}

func TestStatusz(t *testing.T) {
	var buf syncBuffer
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := obsTestServer(t, &buf, func(cfg *Config) {
		cfg.Backend = fakeBackend{
			run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
				close(entered)
				<-release
				return fakeMixResult(cfg), nil
			},
		}
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postWithID(t, srv, "/v1/run", `{"mix":["bzip2"]}`, "statusz-probe")
	}()
	<-entered
	rec := get(t, srv, "/debug/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz status = %d", rec.Code)
	}
	page := rec.Body.String()
	for _, want := range []string{"uptime:", "build:", "draining:", "active_requests:", "cache_entries:", "cache_hit_ratio:", "id=statusz-probe", "route=run"} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q:\n%s", want, page)
		}
	}
	close(release)
	wg.Wait()

	// After a repeat request the hit ratio becomes visible.
	postWithID(t, srv, "/v1/run", `{"mix":["bzip2"]}`, "")
	page = get(t, srv, "/debug/statusz").Body.String()
	if !strings.Contains(page, "singleflight_hits: 1") {
		t.Errorf("statusz hit accounting:\n%s", page)
	}
}

func TestPprofMountedOnlyWhenEnabled(t *testing.T) {
	srv := newTestServer(t, nil)
	if rec := get(t, srv, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof mounted without EnablePprof: %d", rec.Code)
	}
	srv = newTestServer(t, func(cfg *Config) { cfg.EnablePprof = true })
	if rec := get(t, srv, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof index status = %d, want 200", rec.Code)
	}
}

// TestMetricsDuringSimulation is the /v1/metrics data-race regression: the
// memory hierarchies used to publish their cache, TLB and bus counts as
// gauges evaluated at snapshot time, so a scrape read simulator state the
// running simulation was writing. Under -race this fails on any such read;
// the counters now land once per run, on the simulating goroutine.
func TestMetricsDuringSimulation(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.Backend = SimBackend{} })
	done := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if rec := get(t, srv, "/v1/metrics"); rec.Code != http.StatusOK {
				t.Errorf("metrics: status %d", rec.Code)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"mix": ["hmmer", "mcf"], "target_insts": 60000, "seed": "scrape-%d"}`, i)
		if rec := postJSON(t, srv, "/v1/run", body); rec.Code != http.StatusOK {
			t.Errorf("run %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	close(done)
	scraper.Wait()
	if n := srv.Telemetry().Reg().Counter("core0.mem.l1d.accesses").Value(); n == 0 {
		t.Error("core0.mem.l1d.accesses did not move in the server registry")
	}
}
