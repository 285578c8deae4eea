// Chaos observability e2e: injected faults must be visible from the
// outside — as server.chaos.faults.<kind> counters, as a fault field on the
// access-log entries of affected request IDs, and without disturbing the
// span timeline or Prometheus exposition. Test names carry the Chaos prefix
// so CI's chaos-smoke job (-run Chaos) covers them.

package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/server"
)

// obsBuf is a goroutine-safe access-log destination.
type obsBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *obsBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *obsBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// findLine returns the access-log entry for a request ID, or nil.
func findLine(t *testing.T, b *obsBuf, id string) map[string]any {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line not JSON: %q: %v", line, err)
		}
		if m["msg"] == "request" && m["request_id"] == id {
			return m
		}
	}
	return nil
}

func postID(t *testing.T, h http.Handler, path, body, id string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestChaosFaultsVisibleInTelemetryAndAccessLog injects a deterministic
// transient fault and asserts it surfaces as a server.chaos.faults.transient
// counter (JSON and Prometheus exposition alike) and as a fault field on the
// affected request's log line — while the recovered retry logs clean.
func TestChaosFaultsVisibleInTelemetryAndAccessLog(t *testing.T) {
	var buf obsBuf
	srv, _, _, cb := newChaosServer(t, chaos.Config{
		Seed:            "obs-transient",
		PTransient:      1,
		MaxFaultsPerKey: 1,
	}, func(cfg *server.Config) {
		cfg.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	})

	// Attempt 1: the injected transient fails the flight with a 500.
	rec := postID(t, srv, "/v1/run", runBody("obs", 0), "chaos-faulted")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted attempt status = %d, want 500", rec.Code)
	}
	reg := srv.Telemetry().Reg()
	if got := reg.Counter("server.chaos.faults.transient").Value(); got != 1 {
		t.Errorf("server.chaos.faults.transient = %d, want 1", got)
	}
	line := findLine(t, &buf, "chaos-faulted")
	if line == nil {
		t.Fatalf("no access-log line for the faulted request:\n%s", buf.String())
	}
	if line["fault"] != "transient" {
		t.Errorf("faulted line fault = %v, want transient (line %v)", line["fault"], line)
	}
	if line["status"] != float64(http.StatusInternalServerError) {
		t.Errorf("faulted line status = %v, want 500", line["status"])
	}

	// Attempt 2: the per-key budget is spent, the retry recovers cleanly.
	rec = postID(t, srv, "/v1/run", runBody("obs", 0), "chaos-recovered")
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered attempt status = %d, want 200", rec.Code)
	}
	line = findLine(t, &buf, "chaos-recovered")
	if line == nil {
		t.Fatal("no access-log line for the recovered request")
	}
	if _, hasFault := line["fault"]; hasFault {
		t.Errorf("recovered line carries fault = %v, want none", line["fault"])
	}
	if got := reg.Counter("server.chaos.faults.transient").Value(); got != 1 {
		t.Errorf("fault counter moved on a clean flight: %d", got)
	}

	// The counter is scrapeable in the Prometheus exposition.
	mreq := httptest.NewRequest("GET", "/v1/metrics?format=prometheus", nil)
	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, mreq)
	if !strings.Contains(mrec.Body.String(), "server_chaos_faults_transient 1") {
		t.Errorf("prometheus exposition missing chaos fault counter:\n%s", mrec.Body.String())
	}
	if got := cb.Injected()[chaos.KindTransient]; got != 1 {
		t.Errorf("backend injected stats = %d transients, want 1", got)
	}
}

// TestChaosColdSweepObservability is the acceptance e2e under the chaos
// backend: a cold /v1/sweep through a latency-injecting backend still yields
// the full observability picture — leader access-log line with the fault
// attribute, admission/simulate/encode spans in the trace export, and a
// finite per-route p99 in Prometheus format.
func TestChaosColdSweepObservability(t *testing.T) {
	var buf obsBuf
	srv, _, _, _ := newChaosServer(t, chaos.Config{
		Seed:     "obs-sweep",
		PLatency: 1,
	}, func(cfg *server.Config) {
		cfg.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	})

	rec := postID(t, srv, "/v1/sweep", `{"scale": "quick"}`, "chaos-sweep")
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d, body %s", rec.Code, rec.Body.String())
	}
	line := findLine(t, &buf, "chaos-sweep")
	if line == nil {
		t.Fatalf("no access-log line for the sweep:\n%s", buf.String())
	}
	if line["route"] != "sweep" || line["cache"] != "miss" || line["role"] != "leader" {
		t.Errorf("sweep line = %v, want route=sweep cache=miss role=leader", line)
	}
	if line["fault"] != "latency" {
		t.Errorf("sweep line fault = %v, want latency", line["fault"])
	}

	treq := httptest.NewRequest("GET", "/debug/requests/trace", nil)
	trec := httptest.NewRecorder()
	srv.ServeHTTP(trec, treq)
	var events []map[string]any
	if err := json.Unmarshal(trec.Body.Bytes(), &events); err != nil {
		t.Fatalf("trace export not a JSON array: %v", err)
	}
	spans := map[string]bool{}
	for _, ev := range events {
		if args, _ := ev["args"].(map[string]any); args != nil && args["request_id"] == "chaos-sweep" {
			if name, _ := ev["name"].(string); name != "" {
				spans[name] = true
			}
		}
	}
	for _, want := range []string{"admission", "simulate", "encode"} {
		if !spans[want] {
			t.Errorf("span %q missing under chaos (have %v)", want, spans)
		}
	}

	p99 := srv.Telemetry().Reg().Histogram("server.http.latency_us.sweep").Quantile(0.99)
	if p99 <= 0 || math.IsInf(p99, 0) || math.IsNaN(p99) {
		t.Errorf("sweep latency p99 under chaos = %v, want finite and > 0", p99)
	}
}

// statusz renders the server's /debug/statusz page.
func statusz(h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/statusz", nil))
	return rec.Body.String()
}

// gatedInner is a fakeInner whose Run blocks until release closes, holding
// the leader's flight open so a second request can join it.
type gatedInner struct {
	fakeInner
	entered, release chan struct{}
}

func (g *gatedInner) Run(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
	close(g.entered)
	<-g.release
	return g.fakeInner.Run(ctx, cfg)
}

// TestChaosFaultAttributionReachesWaiterAndHit: the fault injected into a
// flight is a property of the bytes it produced, so the leader, a waiter
// that joined its flight and a later cache hit all log fault=latency, and
// the waiter and the hit name the leader that computed their bytes.
func TestChaosFaultAttributionReachesWaiterAndHit(t *testing.T) {
	var buf obsBuf
	inj, err := chaos.NewInjector(chaos.Config{Seed: "obs-attribution", PLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	inner := &gatedInner{entered: make(chan struct{}), release: make(chan struct{})}
	srv := server.New(server.Config{
		Backend:        chaos.Wrap(inner, inj),
		DefaultTimeout: 30 * time.Second,
		Logger:         slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	body := runBody("attribution", 0)
	codes := make(map[string]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	send := func(id string) {
		rec := postID(t, srv, "/v1/run", body, id)
		mu.Lock()
		codes[id] = rec.Code
		mu.Unlock()
	}
	wg.Add(2)
	go func() { defer wg.Done(); send("attr-leader") }()
	<-inner.entered // the leader's flight is in the backend, fault marked
	go func() { defer wg.Done(); send("attr-waiter") }()
	// Release the backend only once statusz shows the second request
	// sharing the leader's key: it set its key just before joining the
	// flight, and the margin covers that last step, which has no outside
	// signal.
	for !strings.Contains(statusz(srv), "waiters=1") {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(inner.release)
	wg.Wait()
	send("attr-hit")
	for id, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("%s status = %d, want 200", id, code)
		}
	}

	want := map[string]struct{ cache, role, leader string }{
		"attr-leader": {"miss", "leader", ""},
		"attr-waiter": {"miss", "waiter", "attr-leader"},
		"attr-hit":    {"hit", "", "attr-leader"},
	}
	for id, w := range want {
		line := findLine(t, &buf, id)
		if line == nil {
			t.Fatalf("no access-log line for %s:\n%s", id, buf.String())
		}
		role, _ := line["role"].(string)
		leader, _ := line["leader"].(string)
		if line["cache"] != w.cache || role != w.role || leader != w.leader || line["fault"] != "latency" {
			t.Errorf("%s line = %v, want cache=%s role=%q leader=%q fault=latency",
				id, line, w.cache, w.role, w.leader)
		}
	}
	if got := inner.runs.Load(); got != 1 {
		t.Errorf("backend ran %d simulations, want 1", got)
	}
}
