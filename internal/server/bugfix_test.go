// Regression tests for the serving-layer bugfixes that rode along with the
// fleet PR: the bounded response cache, healthz drain status, flight-
// error-first status attribution in finish, and the stable "apps" shape.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// TestCacheBoundedKeepsHitAttribution drives >10k one-off job keys through
// the full handler stack and asserts the response cache stays bounded
// instead of holding one entry per distinct key ever served, while the
// attribution riding on each cached value survives: a repeat of the
// hottest (latest) key is a hit naming the request that computed it.
func TestCacheBoundedKeepsHitAttribution(t *testing.T) {
	const bound = 256
	var buf syncBuffer
	srv := obsTestServer(t, &buf, func(c *Config) { c.CacheMaxEntries = bound })
	const keys = 10_050
	body := func(i int) string { return fmt.Sprintf(`{"mix": ["hmmer"], "seed": "oneoff-%d"}`, i) }
	for i := 0; i < keys; i++ {
		id := ""
		if i == keys-1 {
			id = "hot-leader"
		}
		if rec := postWithID(t, srv, "/v1/run", body(i), id); rec.Code != 200 {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	if got := srv.cache.Len(); got > bound {
		t.Fatalf("response cache holds %d entries after %d one-off keys, want <= %d", got, keys, bound)
	}
	if rec := postWithID(t, srv, "/v1/run", body(keys-1), "hot-repeat"); rec.Code != 200 {
		t.Fatalf("repeat of hot key: %d", rec.Code)
	}
	line := requestLine(t, &buf, "hot-repeat")
	if line["cache"] != "hit" || line["leader"] != "hot-leader" {
		t.Errorf("hot repeat line = %v, want cache=hit leader=hot-leader", line)
	}
}

// TestFinishAttributesFlightErrorFirst is the race-shaped 504 regression:
// a flight that settled with a real simulation error in the same instant
// the request deadline expired must be reported as a 500 naming that
// error — ctx.Err() being DeadlineExceeded by the time finish looks must
// not win the attribution.
func TestFinishAttributesFlightErrorFirst(t *testing.T) {
	srv := newTestServer(t, nil)
	expiredCtx := func() context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		t.Cleanup(cancel)
		<-ctx.Done() // the deadline has observably fired, as in the race
		return ctx
	}
	canceledCtx := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	simErr := errors.New("disk on fire")
	cases := []struct {
		name     string
		ctx      context.Context
		err      error
		wantCode int
		wantSub  string
	}{
		// The race itself: real flight error + expired deadline → 500.
		{"real error under expired deadline", expiredCtx(), simErr, 500, "disk on fire"},
		// Real flight error + disconnected client → still the flight error.
		{"real error under canceled ctx", canceledCtx(), simErr, 500, "disk on fire"},
		// The flight error wraps the deadline → 504, as before.
		{"deadline error", expiredCtx(), context.DeadlineExceeded, 504, "deadline exceeded"},
		{"joined deadline error", expiredCtx(),
			errors.Join(context.DeadlineExceeded, &runner.Canceled{Completed: 2, Total: 5, Cause: context.Canceled}),
			504, "deadline exceeded"},
		// A cancellation-shaped flight error under an expired deadline is
		// the deadline's doing: fall back to ctx and report 504.
		{"canceled flight under expired deadline", expiredCtx(),
			&runner.Canceled{Completed: 1, Total: 3, Cause: context.Canceled}, 504, "deadline exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.finish(rec, tc.ctx, nil, runner.OutcomeLeader, tc.err)
			if rec.Code != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.wantCode, rec.Body.Bytes())
			}
			if !strings.Contains(rec.Body.String(), tc.wantSub) {
				t.Fatalf("body %q does not mention %q", rec.Body.String(), tc.wantSub)
			}
		})
	}
	// Client-gone stays a 499 with no body.
	rec := httptest.NewRecorder()
	srv.finish(rec, canceledCtx(), nil, runner.OutcomeLeader, context.Canceled)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("client-gone status %d, want %d", rec.Code, StatusClientClosedRequest)
	}
}

// TestRunResponseAppsNeverNull pins the response shape: "apps" is a JSON
// array even when the result carries no per-app rows, never null.
func TestRunResponseAppsNeverNull(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			res := fakeMixResult(cfg)
			res.Cluster.Apps = nil // empty mix result
			return res, nil
		}}
	})
	rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"]}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Apps json.RawMessage `json:"apps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(string(resp.Apps))
	if got != "[]" {
		t.Fatalf(`"apps" encodes as %s, want []`, got)
	}
	if strings.Contains(rec.Body.String(), `"apps": null`) {
		t.Fatalf("response flipped apps to null:\n%s", rec.Body.Bytes())
	}
}

// TestHealthzDrainingStatusCode: see TestGracefulShutdown for the e2e; this
// pins the exact code + body contract the fleet prober keys off.
func TestHealthzDrainingStatusCode(t *testing.T) {
	srv := newTestServer(t, nil)
	if rec := get(t, srv, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy healthz status %d", rec.Code)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := get(t, srv, "/v1/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", rec.Code)
	}
	var h struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("draining healthz body no longer JSON: %v: %s", err, rec.Body.Bytes())
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("draining healthz body = %+v", h)
	}
}

// TestSimulationsSkipServerSamplerAndTraceSink is the unbounded-retention
// regression: simulations used to feed the server telemetry's sampler and
// trace sink, which nothing serves and nothing bounds, so every run and
// sweep ever served stayed on the heap (and its interval samples in every
// /v1/metrics reply). Simulator counters must still land in the server
// registry.
func TestSimulationsSkipServerSamplerAndTraceSink(t *testing.T) {
	srv := newTestServer(t, nil)
	if rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer", "mcf"], "target_insts": 150000, "interval_cycles": 15000}`); rec.Code != 200 {
		t.Fatalf("run: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if rec := postJSON(t, srv, "/v1/sweep", `{"scale": "tiny"}`); rec.Code != 200 {
		t.Fatalf("sweep: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	tel := srv.Telemetry()
	if n, m := tel.Sink().Len(), tel.Samp().Len(); n != 0 || m != 0 {
		t.Errorf("server retains %d trace events and %d interval samples, want 0 and 0", n, m)
	}
	if n := tel.Reg().Counter("core0.insts").Value(); n == 0 {
		t.Error("simulator counter core0.insts did not move in the server registry")
	}
}
