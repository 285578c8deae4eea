package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// tinyScale keeps the sweep endpoints fast enough for -short runs while
// still exercising the full simulation path.
var tinyScale = experiments.Scale{
	Name:              "tiny",
	TargetInsts:       150_000,
	IntervalCycles:    15_000,
	MixesPerPoint:     1,
	NValues:           []int{2},
	TimelineIntervals: 20,
}

// newTestServer builds a Server with test-friendly defaults; mutate cfg via
// opt before construction.
func newTestServer(t *testing.T, opt func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Scales: map[string]experiments.Scale{
			"quick": experiments.QuickScale,
			"tiny":  tinyScale,
		},
		DefaultTimeout: 30 * time.Second,
	}
	if opt != nil {
		opt(&cfg)
	}
	return New(cfg)
}

// fakeBackend substitutes controllable behaviour for the simulation layer.
type fakeBackend struct {
	run     func(ctx context.Context, cfg core.Config) (*core.MixResult, error)
	reports func(ctx context.Context, s experiments.Scale, ids []string) ([]*experiments.Report, error)
}

func (f fakeBackend) Run(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
	return f.run(ctx, cfg)
}

func (f fakeBackend) Reports(ctx context.Context, s experiments.Scale, ids []string) ([]*experiments.Report, error) {
	return f.reports(ctx, s, ids)
}

// fakeMixResult is a minimal deterministic result for fake backends.
func fakeMixResult(cfg core.Config) *core.MixResult {
	res := &core.MixResult{
		Config:        cfg,
		STP:           0.75,
		EnergyPJ:      1234.5,
		AreaMM2:       6.5,
		OoOActiveFrac: 0.25,
		Cluster:       &cluster.Result{},
	}
	for i, name := range cfg.Benchmarks {
		res.Cluster.Apps = append(res.Cluster.Apps, cluster.AppResult{
			Name:          name,
			Insts:         1000,
			Cycles:        2000,
			IPC:           0.5,
			OoOCycles:     500,
			MemoizedInsts: int64(100 * (i + 1)),
			Migrations:    i,
		})
	}
	return res
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := newTestServer(t, nil)
	rec := get(t, srv, "/v1/healthz")
	if rec.Code != 200 {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var h struct {
		Status string `json:"status"`
		Active int    `json:"active_requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, rec.Body.Bytes())
	}
	if h.Status != "ok" || h.Active != 0 {
		t.Fatalf("healthz = %+v", h)
	}
	rec = get(t, srv, "/v1/metrics")
	if rec.Code != 200 {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("metrics is not valid JSON:\n%s", rec.Body.Bytes())
	}
}

// TestRunGolden runs a real single-cluster simulation through the API and
// pins the response bytes. A repeat request must be served from the cache
// byte-identically.
func TestRunGolden(t *testing.T) {
	srv := newTestServer(t, nil)
	body := `{"mix": ["hmmer", "mcf"], "target_insts": 150000, "interval_cycles": 15000}`
	rec := postJSON(t, srv, "/v1/run", body)
	if rec.Code != 200 {
		t.Fatalf("run status %d: %s", rec.Code, rec.Body.Bytes())
	}
	checkGolden(t, "run_hmmer_mcf.json", rec.Body.Bytes())

	hits := srv.reg.Counter("server.singleflight.hits").Value()
	rec2 := postJSON(t, srv, "/v1/run", body)
	if rec2.Code != 200 {
		t.Fatalf("repeat status %d", rec2.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("cached response differs from first response")
	}
	if got := srv.reg.Counter("server.singleflight.hits").Value(); got != hits+1 {
		t.Fatalf("singleflight.hits = %d, want %d", got, hits+1)
	}
	if got := srv.reg.Counter("server.jobs.executed").Value(); got != 1 {
		t.Fatalf("jobs.executed = %d, want 1", got)
	}
}

func TestRunValidation(t *testing.T) {
	calls := atomic.Int64{}
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			calls.Add(1)
			return fakeMixResult(cfg), nil
		}}
	})
	cases := []struct {
		name, body, wantSub string
	}{
		{"malformed", `{"mix": [`, "invalid request body"},
		{"unknown field", `{"mix": ["hmmer"], "bogus": 1}`, "bogus"},
		{"trailing data", `{"mix": ["hmmer"]} {"x": 1}`, "trailing data"},
		{"empty mix", `{"mix": []}`, "at least one benchmark"},
		{"unknown benchmark", `{"mix": ["nosuch"]}`, "unknown benchmark"},
		{"bad topology", `{"mix": ["hmmer"], "topology": "hyper"}`, "unknown topology"},
		{"bad policy", `{"mix": ["hmmer"], "policy": "nosuch"}`, "unknown policy"},
		{"policy on homo", `{"mix": ["hmmer"], "topology": "homo-ino", "policy": "SC-MPKI"}`, "does not apply"},
		{"num_ooo on mirage", `{"mix": ["hmmer"], "num_ooo": 2}`, "traditional topology only"},
		{"num_ooo range", `{"mix": ["hmmer"], "topology": "traditional", "num_ooo": 99}`, "out of range"},
		{"insts range", `{"mix": ["hmmer"], "target_insts": 900000000}`, "out of range"},
		{"negative timeout", `{"mix": ["hmmer"], "timeout_ms": -1}`, "timeout_ms"},
		{"bad seed", `{"mix": ["hmmer"], "seed": "a|b"}`, "seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, srv, "/v1/run", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body.Bytes())
			}
			var er struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body: %v", err)
			}
			if !strings.Contains(er.Error, tc.wantSub) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.wantSub)
			}
		})
	}
	if rec := postJSON(t, srv, "/v1/sweep", `{"scale": "nosuch"}`); rec.Code != 400 {
		t.Fatalf("unknown scale status %d", rec.Code)
	}
	if rec := get(t, srv, "/v1/run"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status %d, want 405", rec.Code)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("invalid requests reached the backend %d times", n)
	}
	if got := srv.reg.Counter("server.requests.invalid").Value(); got != int64(len(cases)+1) {
		t.Fatalf("requests.invalid = %d, want %d", got, len(cases)+1)
	}
}

// TestWorkerBudget pins where Config.Parallel goes: figures and sweeps get
// it as their Scale.Parallel, while /v1/run always hands its backend a
// serial pair (core.Config.Parallel == 1), whatever the server's budget.
func TestWorkerBudget(t *testing.T) {
	var runPar, figPar atomic.Int64
	srv := newTestServer(t, func(c *Config) {
		c.Parallel = 4
		c.Backend = fakeBackend{
			run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
				runPar.Store(int64(cfg.Parallel))
				return fakeMixResult(cfg), nil
			},
			reports: func(ctx context.Context, sc experiments.Scale, ids []string) ([]*experiments.Report, error) {
				figPar.Store(int64(sc.Parallel))
				return []*experiments.Report{{ID: ids[0]}}, nil
			},
		}
	})
	if rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"]}`); rec.Code != 200 {
		t.Fatalf("run status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if rec := get(t, srv, "/v1/figures/figure-7"); rec.Code != 200 {
		t.Fatalf("figure status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := runPar.Load(); got != 1 {
		t.Errorf("/v1/run backend Parallel = %d, want 1", got)
	}
	if got := figPar.Load(); got != 4 {
		t.Errorf("figure Scale.Parallel = %d, want 4", got)
	}
}

func TestFigureEndpoint(t *testing.T) {
	srv := newTestServer(t, nil)
	// Table 2 is the static hardware-configuration table: real backend, no
	// simulation latency, stable bytes.
	rec := get(t, srv, "/v1/figures/table-2")
	if rec.Code != 200 {
		t.Fatalf("table-2 status %d: %s", rec.Code, rec.Body.Bytes())
	}
	checkGolden(t, "figure_table2.json", rec.Body.Bytes())

	// The canonical ID spelling resolves to the same cached flight.
	rec2 := get(t, srv, "/v1/figures/Table%202")
	if rec2.Code != 200 || !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatalf("ID/slug responses differ (status %d)", rec2.Code)
	}
	if got := srv.reg.Counter("server.jobs.executed").Value(); got != 1 {
		t.Fatalf("jobs.executed = %d, want 1 (slug and ID must share a key)", got)
	}

	if rec := get(t, srv, "/v1/figures/figure-99"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown figure status %d, want 404", rec.Code)
	}
	if rec := get(t, srv, "/v1/figures/table-2?scale=nosuch"); rec.Code != 400 {
		t.Fatalf("unknown scale status %d, want 400", rec.Code)
	}
	if rec := get(t, srv, "/v1/figures/table-2?timeout_ms=abc"); rec.Code != 400 {
		t.Fatalf("bad timeout status %d, want 400", rec.Code)
	}
}

// TestFigureScaleCheckedBeforeAdmission: a figure that cannot report at the
// requested scale is a 400 from the request parse. The Headline reads the
// sweep's n = 8 point, which the tiny scale lacks; it used to be admitted,
// simulate the whole Figure 7 sweep, and fail with a 500.
func TestFigureScaleCheckedBeforeAdmission(t *testing.T) {
	srv := newTestServer(t, nil)
	rec := get(t, srv, "/v1/figures/headline?scale=tiny")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body.Bytes())
	}
	if !strings.Contains(rec.Body.String(), "does not sweep n=8") {
		t.Errorf("error body %s does not name the missing n=8 point", rec.Body.Bytes())
	}
	for name, want := range map[string]int64{
		"server.jobs.executed":    0,
		"server.requests.failed":  0,
		"server.requests.invalid": 1,
	} {
		if got := srv.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestSweepMatchesCLI is the byte-identity contract: /v1/sweep must return
// exactly the bytes cmd/mirageexp -json-out writes for the same scale —
// at any parallelism. The CLI path is reproduced here (registry Reports +
// WriteReportsJSON is precisely what main.go runs) at -parallel 1 and
// -parallel 8, with the experiment caches reset between passes so each
// recomputes from scratch.
func TestSweepMatchesCLI(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.Parallel = 2 })
	rec := postJSON(t, srv, "/v1/sweep", `{"scale": "tiny"}`)
	if rec.Code != 200 {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body.Bytes())
	}
	checkGolden(t, "sweep_tiny.json", rec.Body.Bytes())

	for _, par := range []int{1, 8} {
		experiments.ResetCaches()
		sc := tinyScale
		sc.Parallel = par
		reports, err := experiments.Reports(context.Background(), sc, experiments.SweepIDs)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := experiments.WriteReportsJSON(&buf, reports); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), buf.Bytes()) {
			t.Errorf("parallel=%d: CLI bytes differ from /v1/sweep response", par)
		}
	}
	experiments.ResetCaches()
}

// TestDeadlinePartialDetail drives a request into its deadline and checks
// the 504 carries the partial-result progress from the runner layer.
func TestDeadlinePartialDetail(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			<-ctx.Done()
			return nil, &runner.Canceled{Completed: 3, Total: 10, Cause: ctx.Err()}
		}}
	})
	start := time.Now()
	rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "timeout_ms": 30}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", rec.Code, rec.Body.Bytes())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("504 took %v", elapsed)
	}
	var er struct {
		Error  string `json:"error"`
		Detail *struct {
			Completed int `json:"completed_jobs"`
			Total     int `json:"total_jobs"`
		} `json:"detail"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("body: %v\n%s", err, rec.Body.Bytes())
	}
	if er.Detail == nil || er.Detail.Completed != 3 || er.Detail.Total != 10 {
		t.Fatalf("detail = %+v, want completed 3 / total 10; error %q", er.Detail, er.Error)
	}
	// The failed flight must not be cached: a healthy backend answer after
	// the deadline means the next identical request succeeds.
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d flights after deadline failure", n)
	}
	if got := srv.reg.Counter("server.requests.deadline").Value(); got != 1 {
		t.Fatalf("requests.deadline = %d", got)
	}
}

// TestClientDisconnectCancelsJob checks the e2e cancellation contract: when
// the client goes away, the in-flight simulation's context is cancelled and
// the handler returns within 100ms.
func TestClientDisconnectCancelsJob(t *testing.T) {
	started := make(chan struct{})
	jobCtxDone := make(chan struct{})
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			close(started)
			<-ctx.Done()
			close(jobCtxDone)
			return nil, &runner.Canceled{Completed: 1, Total: 4, Cause: ctx.Err()}
		}}
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run",
		strings.NewReader(`{"mix": ["hmmer"]}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("backend never started")
	}
	cancelAt := time.Now()
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
	// The simulation context must be cancelled promptly...
	select {
	case <-jobCtxDone:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("job context not cancelled within 100ms of client disconnect")
	}
	// ...and the handler must finish (499 path) within the same bound.
	deadline := time.Now().Add(100 * time.Millisecond)
	for srv.reg.Counter("server.requests.cancelled").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("handler did not record cancellation within 100ms (%.0fms since cancel)",
				time.Since(cancelAt).Seconds()*1000)
		}
		time.Sleep(time.Millisecond)
	}
	for srv.ActiveRequests() != 0 {
		if time.Now().After(deadline.Add(400 * time.Millisecond)) {
			t.Fatal("active requests never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d flights after abandonment", n)
	}
}

// TestSaturation fills the execution slot and the wait queue and checks the
// overflow request fails fast with 429 — and that the rejection is not
// cached once load subsides.
func TestSaturation(t *testing.T) {
	release := make(chan struct{})
	srv := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			select {
			case <-release:
				return fakeMixResult(cfg), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}}
	})
	body := func(seed string) string {
		return fmt.Sprintf(`{"mix": ["hmmer"], "seed": %q}`, seed)
	}

	type result struct {
		seed string
		code int
	}
	results := make(chan result, 3)
	do := func(seed string) {
		rec := postJSON(t, srv, "/v1/run", body(seed))
		results <- result{seed, rec.Code}
	}
	// First request occupies the slot.
	go do("s1")
	waitFor(t, "slot occupied", func() bool { return len(srv.slots) == 1 })
	// Second and third fight over the single queue place: exactly one gets
	// it, the other is rejected with 429.
	go do("s2")
	go do("s3")
	first := <-results
	if first.code != http.StatusTooManyRequests {
		t.Fatalf("overflow request got %d, want 429 (seed %s)", first.code, first.seed)
	}
	if got := srv.reg.Counter("server.requests.saturated").Value(); got != 1 {
		t.Fatalf("requests.saturated = %d", got)
	}
	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != 200 {
			t.Fatalf("request %s got %d after release", r.seed, r.code)
		}
	}
	// The 429'd key must retry cleanly now that capacity is back.
	if rec := postJSON(t, srv, "/v1/run", body(first.seed)); rec.Code != 200 {
		t.Fatalf("retry of saturated key got %d, want 200", rec.Code)
	}
}

// TestGracefulShutdown checks draining: in-flight requests complete, new
// ones are rejected with 503 + Retry-After, and Shutdown returns once idle.
func TestGracefulShutdown(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			close(started)
			<-release
			return fakeMixResult(cfg), nil
		}}
	})
	type done struct{ rec *httptest.ResponseRecorder }
	inflight := make(chan done, 1)
	go func() {
		inflight <- done{postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"]}`)}
	}()
	<-started

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	waitFor(t, "draining", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.draining
	})
	rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "other"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request while draining got %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 has no Retry-After header")
	}
	// Health stays reachable while draining and reports it in the status
	// code — a 200 here kept load balancers and the fleet prober routing
	// jobs to a worker that 503s every one of them.
	if rec := get(t, srv, "/v1/healthz"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz while draining: %d %s, want 503 + draining body", rec.Code, rec.Body.Bytes())
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	d := <-inflight
	if d.rec.Code != 200 {
		t.Fatalf("in-flight request got %d during drain, want 200", d.rec.Code)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown is idempotent once idle.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	// A bounded Shutdown that cannot drain reports the context error.
	srv2 := newTestServer(t, nil)
	srv2.mu.Lock()
	srv2.active = 1 // simulate a stuck handler
	srv2.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("stuck Shutdown = %v, want DeadlineExceeded", err)
	}
}

// TestShutdownUnderLoadRejectsQueued is the drain-TOCTOU regression: a
// request already parked in the admission queue when Shutdown begins must
// NOT grab the slot freed by the draining leader and start a fresh
// simulation — it gets the same 503 as a request arriving after the drain.
func TestShutdownUnderLoadRejectsQueued(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	srv := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 4
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			runs.Add(1)
			select {
			case <-release:
				return fakeMixResult(cfg), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}}
	})
	results := make(chan *httptest.ResponseRecorder, 2)
	go func() { results <- postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "leader"}`) }()
	waitFor(t, "leader holds the slot", func() bool { return len(srv.slots) == 1 })
	// A second, distinct job parks in the wait queue behind the leader.
	go func() { results <- postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "queued"}`) }()
	waitFor(t, "second request queued", func() bool { return len(srv.queued) == 1 })

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	waitFor(t, "draining", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.draining
	})
	// The leader finishes and frees its slot mid-drain. The queued waiter
	// must observe the drain instead of claiming the slot.
	close(release)
	sawDraining := false
	for i := 0; i < 2; i++ {
		rec := <-results
		switch rec.Code {
		case 200:
		case http.StatusServiceUnavailable:
			sawDraining = true
			if rec.Header().Get("Retry-After") == "" {
				t.Error("drain 503 has no Retry-After header")
			}
		default:
			t.Fatalf("request got %d, want 200 (leader) or 503 (queued)", rec.Code)
		}
	}
	if !sawDraining {
		t.Fatal("queued request was admitted mid-drain instead of rejected with 503")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("backend ran %d simulations, want 1 — drain admitted a new flight", got)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestSingleflightConcurrent is the -race regression for the dedup path:
// N identical concurrent requests must run ONE simulation and return
// byte-identical bodies.
func TestSingleflightConcurrent(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	srv := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 4
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			runs.Add(1)
			time.Sleep(20 * time.Millisecond) // hold the flight open so all callers join it
			return fakeMixResult(cfg), nil
		}}
	})
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer", "mcf"]}`)
			bodies[i] = rec.Body.Bytes()
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d got %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1", got)
	}
	if got := srv.reg.Counter("server.jobs.executed").Value(); got != 1 {
		t.Fatalf("jobs.executed = %d, want 1", got)
	}
	if got := srv.reg.Counter("server.singleflight.hits").Value(); got != n-1 {
		t.Fatalf("singleflight.hits = %d, want %d", got, n-1)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
