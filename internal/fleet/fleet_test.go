// Coordinator unit tests over httptest workers: shard routing, failover,
// hedging, health-driven eviction, and header attribution. The full-stack
// fleet e2e (real miraged workers, chaos faults, byte-identical sweeps)
// lives in internal/chaos.

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"log/slog"

	"repro/internal/server"
)

// fakeWorker is a minimal miraged stand-in: healthz plus an echo of which
// worker served, with pluggable per-request behaviour.
type fakeWorker struct {
	name    string
	srv     *httptest.Server
	healthy atomic.Bool
	served  atomic.Int64
	// handle, when set, overrides the default echo response.
	handle atomic.Pointer[http.HandlerFunc]

	mu   sync.Mutex
	reqs []*http.Request
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	w := &fakeWorker{name: name}
	w.healthy.Store(true)
	w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			if !w.healthy.Load() {
				rw.WriteHeader(http.StatusServiceUnavailable)
			}
			fmt.Fprint(rw, `{"status": "ok"}`)
			return
		}
		w.served.Add(1)
		w.mu.Lock()
		w.reqs = append(w.reqs, r.Clone(context.Background()))
		w.mu.Unlock()
		if h := w.handle.Load(); h != nil {
			(*h)(rw, r)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"worker": %q}`, w.name)
	}))
	t.Cleanup(w.srv.Close)
	return w
}

func (w *fakeWorker) lastReq(t *testing.T) *http.Request {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.reqs) == 0 {
		t.Fatal("worker served no requests")
	}
	return w.reqs[len(w.reqs)-1]
}

func newTestFleet(t *testing.T, workers []*fakeWorker, opt func(*Config)) *Coordinator {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.srv.URL
	}
	cfg := Config{Workers: urls, ProbeInterval: 50 * time.Millisecond}
	if opt != nil {
		opt(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func servedBy(rec *httptest.ResponseRecorder) string {
	var r struct {
		Worker string `json:"worker"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &r)
	return r.Worker
}

func post(c *Coordinator, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	return rec
}

func TestCoordinatorShardsDeterministically(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	c := newTestFleet(t, ws, nil)
	byWorker := map[string]bool{}
	for i := 0; i < 30; i++ {
		body := fmt.Sprintf(`{"mix": ["hmmer"], "seed": "shard-%d"}`, i)
		first := post(c, "/v1/run", body)
		if first.Code != 200 {
			t.Fatalf("status %d: %s", first.Code, first.Body.Bytes())
		}
		w := servedBy(first)
		byWorker[w] = true
		if w == "" {
			t.Fatalf("request %d: no worker attribution in %s", i, first.Body.Bytes())
		}
		if shard := first.Header().Get("X-Mirage-Shard"); shard == "" {
			t.Fatal("response missing X-Mirage-Shard")
		}
		// The same body routes to the same worker, every time.
		for j := 0; j < 3; j++ {
			if again := servedBy(post(c, "/v1/run", body)); again != w {
				t.Fatalf("key routed to %s then %s", w, again)
			}
		}
	}
	if len(byWorker) < 2 {
		t.Fatalf("30 distinct keys all landed on %v — ring not spreading", byWorker)
	}
}

func TestCoordinatorFailsOverOn503AndTransportError(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	c := newTestFleet(t, ws, nil)
	// Every worker but w3 refuses with 503 (draining shape): whatever the
	// owner is, the request must end on a 200 from some worker.
	refuse := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(rw, `{"error": "server is draining"}`)
	})
	ws[0].handle.Store(&refuse)
	ws[1].handle.Store(&refuse)
	rec := post(c, "/v1/run", `{"mix": ["hmmer"], "seed": "failover"}`)
	if rec.Code != 200 {
		t.Fatalf("status %d, want 200 via failover: %s", rec.Code, rec.Body.Bytes())
	}
	if got := servedBy(rec); got != "w3" {
		t.Fatalf("served by %s, want w3", got)
	}

	// Transport-level death: kill w3's listener too and the coordinator
	// reports the last worker-shaped failure (the 503), not a hang.
	ws[2].srv.CloseClientConnections()
	ws[2].srv.Close()
	rec = post(c, "/v1/run", `{"mix": ["hmmer"], "seed": "failover-2"}`)
	if rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusBadGateway {
		t.Fatalf("all-failed status %d, want 503 or 502: %s", rec.Code, rec.Body.Bytes())
	}
}

// TestHedgeBounds is the -hedge-max regression: New read a HedgeMax below
// HedgeMin as unset and replaced it with the 10s default, so a coordinator
// asked to hedge after at most 50ms waited 200 times longer. Only an unset
// HedgeMax takes the default; one below HedgeMin is an error.
func TestHedgeBounds(t *testing.T) {
	workers := []string{"http://127.0.0.1:1"}
	if c, err := New(Config{Workers: workers, HedgeMin: 100 * time.Millisecond, HedgeMax: 50 * time.Millisecond}); err == nil {
		c.Close()
		t.Fatalf("HedgeMax 50ms below HedgeMin 100ms accepted; hedge budget %v", c.hedgeBudget())
	}
	for _, tc := range []struct {
		min, max, want time.Duration
	}{
		{0, 0, 10 * time.Second},
		{0, 5 * time.Second, 5 * time.Second},
		{20 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond},
	} {
		c, err := New(Config{Workers: workers, HedgeMin: tc.min, HedgeMax: tc.max})
		if err != nil {
			t.Fatalf("HedgeMin %v HedgeMax %v: %v", tc.min, tc.max, err)
		}
		// With no latency history the budget sits at HedgeMax.
		if got := c.hedgeBudget(); got != tc.want {
			t.Errorf("HedgeMin %v HedgeMax %v: hedge budget %v, want %v", tc.min, tc.max, got, tc.want)
		}
		c.Close()
	}
}

func TestCoordinatorHedgesSlowOwner(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	release := make(chan struct{})
	stall := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		fmt.Fprint(rw, `{"worker": "stalled"}`)
	})
	// Stall every worker except one fast responder; whoever owns the key,
	// hedging must reach the fast worker.
	fastIdx := 2
	for i, w := range ws {
		if i != fastIdx {
			w.handle.Store(&stall)
		}
	}
	defer close(release)
	c := newTestFleet(t, ws, func(cfg *Config) {
		cfg.HedgeMin = 20 * time.Millisecond
		cfg.HedgeMax = 20 * time.Millisecond
	})
	body := `{"mix": ["hmmer"], "seed": "hedge-me"}`
	start := time.Now()
	rec := post(c, "/v1/run", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := servedBy(rec); got != ws[fastIdx].name {
		// The fast worker may have been the owner — then no hedge fired.
		// Force the interesting case by checking attribution only when the
		// hedge counter moved.
		t.Fatalf("served by %s, want %s", got, ws[fastIdx].name)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hedge took implausibly long")
	}
	// If the fast worker was not the owner, the response is attributed as
	// hedged and the hedged request carried the owner hint.
	if rec.Header().Get("X-Mirage-Hedged") != "" {
		req := ws[fastIdx].lastReq(t)
		if req.Header.Get("X-Mirage-Owner") == "" {
			t.Fatal("hedged request missing X-Mirage-Owner")
		}
		if req.Header.Get("X-Mirage-Hedge") == "" {
			t.Fatal("hedged request missing X-Mirage-Hedge")
		}
		if c.reg.Counter("fleet.hedges").Value() == 0 {
			t.Fatal("fleet.hedges counter did not move")
		}
	}
}

// TestCoordinatorHedgingCutsStallTail is the evidence hedging is kept on
// (DESIGN.md §14). Every worker but one stalls until its request context
// ends, and 20 distinct keys are sent at once, each under a 300ms client
// deadline. Hedging after 20ms answers every one in time; never hedging
// (a 1h budget) loses exactly the keys whose owner stalls.
func TestCoordinatorHedgingCutsStallTail(t *testing.T) {
	const n, deadline = 20, 300 * time.Millisecond
	type outcome struct {
		ownerStalls, ok bool
		took            time.Duration
	}
	run := func(hedge time.Duration) (out []outcome, p99 time.Duration) {
		ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
		// Reading the body first lets net/http notice the caller hanging up
		// and cancel r.Context().
		stall := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		})
		ws[0].handle.Store(&stall)
		ws[1].handle.Store(&stall)
		c := newTestFleet(t, ws, func(cfg *Config) { cfg.HedgeMin, cfg.HedgeMax = hedge, hedge })
		front := httptest.NewServer(c)
		defer front.Close()
		out = make([]outcome, n)
		var wg sync.WaitGroup
		for i := range out {
			body := fmt.Sprintf(`{"mix": ["hmmer"], "seed": "tail-%d"}`, i)
			var req server.RunRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatal(err)
			}
			key, err := server.CanonicalRunKey(&req)
			if err != nil {
				t.Fatal(err)
			}
			out[i].ownerStalls = c.Ring().Replicas(key, 1)[0] != ws[2].srv.URL
			wg.Add(1)
			go func(o *outcome) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				defer cancel()
				hr, _ := http.NewRequestWithContext(ctx, "POST", front.URL+"/v1/run", strings.NewReader(body))
				start := time.Now()
				if resp, err := http.DefaultClient.Do(hr); err == nil {
					_, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					o.ok = err == nil && resp.StatusCode == http.StatusOK
				}
				o.took = time.Since(start)
			}(&out[i])
		}
		wg.Wait()
		took := make([]time.Duration, n)
		for i, o := range out {
			took[i] = o.took
		}
		slices.Sort(took)
		return out, took[(99*n+99)/100-1]
	}

	hedged, hedgedP99 := run(20 * time.Millisecond)
	for i, o := range hedged {
		if !o.ok || o.took >= deadline {
			t.Errorf("hedged: request %d ok=%v in %v, want a 200 within %v", i, o.ok, o.took, deadline)
		}
	}
	unhedged, unhedgedP99 := run(time.Hour)
	stalled := 0
	for i, o := range unhedged {
		if o.ownerStalls {
			stalled++
		}
		if o.ok == o.ownerStalls {
			t.Errorf("unhedged: request %d ok=%v with stalled owner=%v", i, o.ok, o.ownerStalls)
		}
	}
	if stalled == 0 {
		t.Fatal("the fast worker owned every key; the no-hedge run proves nothing")
	}
	t.Logf("p99 over %d requests: %v hedged at 20ms, %v never hedged (%d owners stalled)",
		n, hedgedP99, unhedgedP99, stalled)
}

func TestProberEvictsAndRestores(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	var logBuf bytes.Buffer
	logMu := &sync.Mutex{}
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: logMu, w: &logBuf}, nil))
	c := newTestFleet(t, ws, func(cfg *Config) { cfg.Logger = logger })
	c.ProbeOnce(context.Background())
	if got := len(c.Ring().Healthy()); got != 3 {
		t.Fatalf("healthy = %d, want 3", got)
	}

	ws[1].healthy.Store(false) // draining: healthz now 503
	c.ProbeOnce(context.Background())
	if c.Ring().Down(ws[0].srv.URL) || !c.Ring().Down(ws[1].srv.URL) || c.Ring().Down(ws[2].srv.URL) {
		t.Fatalf("eviction state wrong: healthy=%v", c.Ring().Healthy())
	}
	for i := 0; i < 20; i++ {
		rec := post(c, "/v1/run", fmt.Sprintf(`{"mix": ["hmmer"], "seed": "evict-%d"}`, i))
		if rec.Code != 200 {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
		if got := servedBy(rec); got == "w2" {
			t.Fatal("evicted worker served a request")
		}
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "ring re-shard") {
		t.Fatalf("eviction did not log a ring re-shard:\n%s", logged)
	}

	// Recovery: the worker re-enters on the next probe.
	ws[1].healthy.Store(true)
	c.ProbeOnce(context.Background())
	if got := len(c.Ring().Healthy()); got != 3 {
		t.Fatalf("healthy = %d after recovery, want 3", got)
	}
	if c.reg.Counter("fleet.ring.reshards").Value() != 2 {
		t.Fatalf("reshards = %d, want 2 (evict + restore)", c.reg.Counter("fleet.ring.reshards").Value())
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestCoordinatorPassesThroughValidationErrors: a request no worker would
// accept gets no key — not even one for a valid job it resembles — and
// still routes (deterministically, unhedged); the worker's response comes
// back verbatim.
func TestCoordinatorPassesThroughValidationErrors(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	const rejection = `{"error": "rejected by the worker"}`
	reject := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(rw, rejection)
	})
	for _, w := range ws {
		w.handle.Store(&reject)
	}
	var logBuf bytes.Buffer
	logMu := &sync.Mutex{}
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: logMu, w: &logBuf}, nil))
	c := newTestFleet(t, ws, func(cfg *Config) { cfg.Logger = logger })
	for _, tc := range []struct{ method, target, body string }{
		{"POST", "/v1/run", `{"mix": ["nope"]}`},
		{"POST", "/v1/run", `{"mix": ["hmmer"], "bogus": 1}`},
		{"GET", "/v1/figures/table-2?timeout_ms=-1", ""},
	} {
		logMu.Lock()
		logBuf.Reset()
		logMu.Unlock()
		before := ws[0].served.Load() + ws[1].served.Load()
		shard := ""
		for i := 0; i < 6; i++ {
			rec := httptest.NewRecorder()
			c.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
			if rec.Code != http.StatusBadRequest || rec.Body.String() != rejection {
				t.Fatalf("%s %s: status %d body %s, want the worker's 400 verbatim", tc.target, tc.body, rec.Code, rec.Body.Bytes())
			}
			// Deterministic: repeats land on the same worker.
			if got := rec.Header().Get("X-Mirage-Shard"); i == 0 {
				shard = got
			} else if got != shard {
				t.Fatalf("%s %s: unkeyed fallback routing moved from %s to %s", tc.target, tc.body, shard, got)
			}
		}
		if got := ws[0].served.Load() + ws[1].served.Load() - before; got != 6 {
			t.Fatalf("%s %s: 6 requests hit workers %d times, want exactly 6 (no hedges)", tc.target, tc.body, got)
		}
		logMu.Lock()
		logged := logBuf.String()
		logMu.Unlock()
		for _, line := range strings.Split(strings.TrimSpace(logged), "\n") {
			var entry map[string]any
			if err := json.Unmarshal([]byte(line), &entry); err != nil {
				t.Fatal(err)
			}
			if entry["msg"] != "proxy" {
				continue
			}
			if key, ok := entry["key"]; ok {
				t.Fatalf("%s %s: routed by key %v; a request no worker accepts must route unkeyed", tc.target, tc.body, key)
			}
		}
	}
}

func TestCoordinatorHealthz(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	c := newTestFleet(t, ws, nil)
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var h struct {
		Status         string   `json:"status"`
		Role           string   `json:"role"`
		HealthyWorkers []string `json:"healthy_workers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != "coordinator" || len(h.HealthyWorkers) != 2 {
		t.Fatalf("healthz body = %+v", h)
	}

	for _, w := range ws {
		w.healthy.Store(false)
	}
	c.ProbeOnce(context.Background())
	rec = httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no-workers healthz status %d, want 503", rec.Code)
	}
	// And simulation requests fail fast with a clean 503.
	if rec := post(c, "/v1/run", `{"mix": ["hmmer"]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no-workers run status %d, want 503", rec.Code)
	}
}

// TestCoordinatorStripsClientMirageHeaders: X-Mirage-* is fleet-internal
// routing metadata. A client smuggling X-Mirage-Owner through the proxy
// would point the worker's peer fetch at an attacker URL, so the
// coordinator must drop the whole header family while still forwarding
// ordinary headers.
func TestCoordinatorStripsClientMirageHeaders(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1")}
	c := newTestFleet(t, ws, nil)
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(`{"mix": ["hmmer"]}`))
	req.Header.Set("X-Mirage-Owner", "http://evil.example")
	req.Header.Set("X-Mirage-Hedge", "7")
	req.Header.Set("X-Request-ID", "keep-me")
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	got := ws[0].lastReq(t)
	for _, h := range []string{"X-Mirage-Owner", "X-Mirage-Hedge"} {
		if v := got.Header.Get(h); v != "" {
			t.Fatalf("client-supplied %s forwarded to the worker (= %q)", h, v)
		}
	}
	if got.Header.Get("X-Request-ID") != "keep-me" {
		t.Fatal("ordinary client header was not forwarded")
	}
}

// TestCoordinatorRequestIDJoinsLogs: the coordinator settles a request's
// ID once, with the workers' own rule, so its proxy log line, its reply and
// every worker attempt — owner and hedge alike — carry the same ID. That
// holds when the client sends none (the coordinator mints it) and when the
// client's is unusable (the coordinator replaces it, as a worker would).
func TestCoordinatorRequestIDJoinsLogs(t *testing.T) {
	for _, tc := range []struct {
		name, clientID string
		hedged         bool
	}{
		{"no client ID", "", false},
		{"invalid client ID", `has"quote`, false},
		{"hedged pair", "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
			if tc.hedged {
				// The owner answers only once the hedge has reached the other
				// worker, so both attempts are on record.
				var arrived atomic.Int64
				both := make(chan struct{})
				wait := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
					if arrived.Add(1) == 2 {
						close(both)
					}
					select {
					case <-both:
					case <-r.Context().Done():
						return
					}
					fmt.Fprint(rw, `{"worker": "either"}`)
				})
				for _, w := range ws {
					w.handle.Store(&wait)
				}
			}
			var logBuf bytes.Buffer
			logMu := &sync.Mutex{}
			logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: logMu, w: &logBuf}, nil))
			c := newTestFleet(t, ws, func(cfg *Config) {
				cfg.Logger = logger
				if tc.hedged {
					cfg.HedgeMin = 20 * time.Millisecond
					cfg.HedgeMax = 20 * time.Millisecond
				}
			})
			req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(`{"mix": ["hmmer"], "seed": "join-logs"}`))
			if tc.clientID != "" {
				req.Header.Set("X-Request-ID", tc.clientID)
			}
			rec := httptest.NewRecorder()
			c.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
			id := rec.Header().Get("X-Request-ID")
			if id == "" || id == tc.clientID || len(rec.Header().Values("X-Request-ID")) != 1 {
				t.Fatalf("reply X-Request-ID %q, want one ID minted in place of %q", rec.Header().Values("X-Request-ID"), tc.clientID)
			}
			attempts := 0
			for _, w := range ws {
				w.mu.Lock()
				for _, r := range w.reqs {
					attempts++
					if got := r.Header.Values("X-Request-ID"); len(got) != 1 || got[0] != id {
						t.Errorf("worker %s attempt carried X-Request-ID %q, want %q", w.name, got, id)
					}
				}
				w.mu.Unlock()
			}
			if want := map[bool]int{false: 1, true: 2}[tc.hedged]; attempts != want {
				t.Fatalf("%d worker attempts, want %d", attempts, want)
			}
			logMu.Lock()
			logged := logBuf.String()
			logMu.Unlock()
			proxied := 0
			for _, line := range strings.Split(strings.TrimSpace(logged), "\n") {
				var entry map[string]any
				if err := json.Unmarshal([]byte(line), &entry); err != nil {
					t.Fatal(err)
				}
				if entry["msg"] != "proxy" {
					continue
				}
				proxied++
				if entry["request_id"] != id {
					t.Errorf("proxy line request_id = %v, want %q", entry["request_id"], id)
				}
			}
			if proxied != 1 {
				t.Fatalf("%d proxy log lines, want 1:\n%s", proxied, logged)
			}
		})
	}
}

// TestCoordinatorRefusesInternalPaths: /internal/* is the workers' peering
// surface; the coordinator must not hand clients a proxy into it.
func TestCoordinatorRefusesInternalPaths(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	c := newTestFleet(t, ws, nil)
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest("GET", "/internal/peer/cache?key=run%7Cx", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	if n := ws[0].served.Load() + ws[1].served.Load(); n != 0 {
		t.Fatalf("internal path reached %d worker(s)", n)
	}
	if c.reg.Counter("fleet.requests.internal_refused").Value() != 1 {
		t.Fatal("refusal not counted")
	}
}

// TestCoordinatorClientCancelNotUnreachable: a client disconnecting while
// every worker is still thinking is a cancellation, not a fleet outage —
// it must land in the client_cancelled counter and a 499 log line, never
// in fleet.requests.unreachable.
func TestCoordinatorClientCancelNotUnreachable(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1")}
	release := make(chan struct{})
	defer close(release) // unblock the handler before cleanup closes the server
	stall := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// Drain the body: with unread request data the net/http server skips
		// the background read that detects the client closing, and the
		// handler would never observe the coordinator's cancellation.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	ws[0].handle.Store(&stall)
	c := newTestFleet(t, ws, nil)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(`{"mix": ["hmmer"]}`)).WithContext(ctx)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if got := c.reg.Counter("fleet.requests.client_cancelled").Value(); got != 1 {
		t.Fatalf("client_cancelled = %d, want 1", got)
	}
	if got := c.reg.Counter("fleet.requests.unreachable").Value(); got != 0 {
		t.Fatalf("unreachable = %d, want 0 — client cancel misattributed as outage", got)
	}
}

func TestCoordinatorMetrics(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w1")}
	c := newTestFleet(t, ws, nil)
	if rec := post(c, "/v1/run", `{"mix": ["hmmer"]}`); rec.Code != 200 {
		t.Fatalf("run status %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "fleet.requests") {
		t.Fatalf("metrics missing fleet counters: %s", rec.Body.Bytes())
	}
	// A scraper asking for text/plain gets Prometheus text, as from a worker.
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); rec.Code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Accept: text/plain got status %d, Content-Type %q", rec.Code, ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE ") {
		t.Fatalf("Accept: text/plain body is not Prometheus text: %s", rec.Body.Bytes())
	}
}
