// The fleet coordinator: one miraged process that owns no simulations but
// shards canonical job keys across N worker miraged instances over plain
// HTTP. Requests with a derivable canonical key route to the key's owner on
// a consistent-hash ring; slow owners get hedged to the next distinct
// replica after a latency budget learned from the coordinator's own p99;
// dead or draining workers leave the ring within one probe interval. The
// coordinator parses every job request with the same server.ParseJob the
// workers serve it with, so routing, cache peering and the workers' caches
// all agree on what is a job and what "the same job" means.

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"log/slog"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Workers are the base URLs of the miraged workers (e.g.
	// "http://127.0.0.1:8081"). At least one is required.
	Workers []string
	// Scales resolve sweep/figure scale names during key derivation; nil
	// means server.DefaultScales. They must match the workers' —
	// a coordinator and its workers disagreeing on scales shards
	// equivalent requests to different owners.
	Scales map[string]experiments.Scale
	// ProbeInterval is the health-poll period (default 1s); it also bounds
	// each individual probe request.
	ProbeInterval time.Duration
	// HedgeMin and HedgeMax clamp the hedge budget — the time the
	// coordinator waits on the owner before re-issuing to the next replica.
	// The budget itself is the coordinator's own observed p99 proxy
	// latency; before any history exists it sits at HedgeMax. Zero or
	// negative means the default, 100ms and 10s; New rejects a HedgeMax
	// below HedgeMin.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// Client performs worker requests and health probes; nil uses a
	// dedicated client with sane connection reuse.
	Client *http.Client
	// Telemetry instruments the coordinator (nil allocates fresh);
	// /v1/metrics exports it.
	Telemetry *telemetry.Telemetry
	// Logger receives the coordinator's structured log: one line per
	// proxied request plus ring re-shard events. nil disables logging.
	Logger *slog.Logger
}

// Coordinator is the fleet front end. Create with New, then Start the
// health prober; it implements http.Handler.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	prober *prober
	client *http.Client
	tel    *telemetry.Telemetry
	reg    *telemetry.Registry
	logger *slog.Logger
	lat    *telemetry.Histogram
	mux    *http.ServeMux
}

// New builds a Coordinator from cfg, applying defaults for zero fields.
func New(cfg Config) (*Coordinator, error) {
	ring, err := NewRing(cfg.Workers, 0)
	if err != nil {
		return nil, err
	}
	for _, w := range cfg.Workers {
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			return nil, fmt.Errorf("worker %q: URL must start with http:// or https://", w)
		}
		if strings.HasSuffix(w, "/") {
			return nil, fmt.Errorf("worker %q: URL must not end with /", w)
		}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 100 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = 10 * time.Second
	}
	if cfg.HedgeMax < cfg.HedgeMin {
		return nil, fmt.Errorf("hedge max %v is below hedge min %v", cfg.HedgeMax, cfg.HedgeMin)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   ring,
		client: cfg.Client,
		tel:    cfg.Telemetry,
		reg:    cfg.Telemetry.Reg(),
		logger: cfg.Logger,
	}
	c.lat = c.reg.Histogram("fleet.proxy.latency_us")
	c.prober = newProber(ring, c.client, cfg.ProbeInterval, cfg.Logger, c.reg)
	c.mux = http.NewServeMux()
	for pattern, route := range server.JobRoutes {
		c.mux.HandleFunc(pattern, c.handleJob(route))
	}
	c.mux.HandleFunc("GET /v1/healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	c.mux.HandleFunc("/", c.handleFallback)
	return c, nil
}

// Start launches the background health prober. Close stops it.
func (c *Coordinator) Start() { c.prober.start() }

// Close halts the health prober and waits for it.
func (c *Coordinator) Close() { c.prober.stop() }

// Ring exposes the hash ring (tests and the fleet e2e assert on it).
func (c *Coordinator) Ring() *Ring { return c.ring }

// ProbeOnce runs one synchronous health sweep (tests; the smoke script's
// kill-recover assertions stay deterministic through the background loop).
func (c *Coordinator) ProbeOnce(ctx context.Context) { c.prober.probeOnce(ctx) }

// Telemetry returns the coordinator's telemetry.
func (c *Coordinator) Telemetry() *telemetry.Telemetry { return c.tel }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// handleJob routes one server.JobRoutes route by the key the workers'
// own parse gives the request. A request no worker would accept gets no
// key and routes unkeyed, so its owner-of-record worker answers with the
// canonical error.
func (c *Coordinator) handleJob(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := server.ReadBody(r)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
			return
		}
		key := ""
		if j, err := server.ParseJob(route, r, body, c.cfg.Scales); err == nil {
			key = j.Key
		}
		c.proxy(w, r, route, key, body)
	}
}

// handleFallback proxies everything else — debug endpoints, unknown paths —
// to one deterministic healthy worker, no hedging. Fleet-internal paths are
// refused outright: /internal/* is the workers' peering surface, and
// proxying it would hand any client a read (and probe) oracle over every
// worker's cache and store.
func (c *Coordinator) handleFallback(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/internal/") {
		c.reg.Counter("fleet.requests.internal_refused").Inc()
		c.writeError(w, http.StatusNotFound, "fleet-internal endpoints are not proxied")
		return
	}
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodHead {
		b, err := server.ReadBody(r)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
			return
		}
		body = b
	}
	c.proxy(w, r, "fallback", "", body)
}

// handleHealthz reports the coordinator's own health: ok while at least one
// worker is in rotation, 503 otherwise (the coordinator can serve nothing).
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	workers := c.ring.Workers()
	healthy := c.ring.Healthy()
	resp := struct {
		Status         string   `json:"status"`
		Role           string   `json:"role"`
		HealthyWorkers []string `json:"healthy_workers"`
		TotalWorkers   int      `json:"total_workers"`
	}{"ok", "coordinator", healthy, len(workers)}
	w.Header().Set("Content-Type", "application/json")
	if len(healthy) == 0 {
		resp.Status = "no-healthy-workers"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(resp)
}

// handleMetrics exports the coordinator's own telemetry, negotiated like a
// worker's (the workers serve their own /v1/metrics directly).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body, contentType, err := server.RenderMetrics(c.tel, r)
	if err != nil {
		c.writeError(w, http.StatusInternalServerError, "metrics render failed")
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(body)
}

func (c *Coordinator) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// hedgeBudget is how long to wait on the current attempt before re-issuing
// to the next replica: the coordinator's own observed p99 proxy latency,
// clamped to [HedgeMin, HedgeMax]. With no history yet it sits at HedgeMax
// (hedge late rather than double the fleet's load while cold).
func (c *Coordinator) hedgeBudget() time.Duration {
	p99 := time.Duration(c.lat.Quantile(0.99)) * time.Microsecond
	if p99 < c.cfg.HedgeMin {
		if c.lat.Count() == 0 {
			return c.cfg.HedgeMax
		}
		return c.cfg.HedgeMin
	}
	if p99 > c.cfg.HedgeMax {
		return c.cfg.HedgeMax
	}
	return p99
}

// workerResponse is a fully buffered reply from one worker.
type workerResponse struct {
	status int
	header http.Header
	body   []byte
}

// attemptResult is one settled attempt: a buffered response or a transport
// error.
type attemptResult struct {
	worker  string
	attempt int
	resp    *workerResponse
	err     error
}

// retryable reports whether a worker's reply should move the request to the
// next replica: transport errors (worker died mid-request) and 502/503
// (worker draining or its own upstream broken). Everything else — including
// 4xx, 429 and 504 — is the canonical answer for this request and is
// returned to the client as-is.
func retryable(res attemptResult) bool {
	if res.err != nil {
		return true
	}
	return res.resp.status == http.StatusBadGateway || res.resp.status == http.StatusServiceUnavailable
}

// proxy routes one request: key != "" shards it (owner first, hedge to the
// next distinct replicas after the latency budget); key == "" routes
// deterministically by method+path+body hash with failover but no hedging,
// so the owner-of-record worker produces the canonical response (typically
// a validation error body).
//
// The request ID follows the workers' rule (server.RequestID), applied once
// here: every attempt carries it, the reply echoes it and the proxy log line
// records it, so coordinator and worker log lines join on it.
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, route, key string, body []byte) {
	id := server.RequestID(r)
	w.Header().Set("X-Request-ID", id)
	c.reg.Counter("fleet.requests").Inc()
	c.reg.Counter("fleet.requests." + route).Inc()
	hedge := key != ""
	ringKey := key
	if ringKey == "" {
		ringKey = fmt.Sprintf("fallback|%s|%s|%d", r.Method, r.URL.Path, hash64(string(body)))
	}
	// Every healthy worker is a candidate for hedges and failovers.
	replicas := c.ring.Replicas(ringKey, 0)
	if len(replicas) == 0 {
		c.reg.Counter("fleet.requests.no_workers").Inc()
		c.writeError(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	start := time.Now()
	res, hedged := c.race(r, id, replicas, body, hedge)
	dur := time.Since(start)
	if res.resp == nil {
		// The client going away (or its deadline firing) is not a worker
		// outage: attribute it as a cancellation — nginx's 499 convention,
		// log/metrics only, nobody is left to read a body — instead of
		// polluting the unreachable counter the fleet alerts on.
		if r.Context().Err() != nil {
			c.reg.Counter("fleet.requests.client_cancelled").Inc()
			c.logProxy(r, id, route, key, res.worker, res.attempt, hedged, server.StatusClientClosedRequest, dur)
			return
		}
		// Every replica failed at the transport layer.
		c.reg.Counter("fleet.requests.unreachable").Inc()
		c.writeError(w, http.StatusBadGateway, "all workers unreachable: "+res.err.Error())
		c.logProxy(r, id, route, key, res.worker, res.attempt, hedged, http.StatusBadGateway, dur)
		return
	}
	c.lat.Observe(dur.Microseconds())
	copyHeaders(w.Header(), res.resp.header)
	w.Header().Set("X-Request-ID", id) // replaces the worker's echo of it
	w.Header().Set("X-Mirage-Shard", res.worker)
	if res.attempt > 0 {
		w.Header().Set("X-Mirage-Hedged", strconv.Itoa(res.attempt))
	}
	w.WriteHeader(res.resp.status)
	_, _ = w.Write(res.resp.body)
	c.logProxy(r, id, route, key, res.worker, res.attempt, hedged, res.resp.status, dur)
}

// race runs the hedged attempt loop: attempt 0 goes to the owner; each
// retryable failure fails over immediately, and (when hedging) each expiry
// of the latency budget launches the next replica concurrently. The first
// final (non-retryable) response wins and every other attempt is cancelled.
// When all replicas fail, the last worker-shaped failure (502/503) is
// returned so the client sees the worker's own body; with only transport
// errors, resp is nil.
func (c *Coordinator) race(r *http.Request, id string, replicas []string, body []byte, hedge bool) (res attemptResult, hedges int) {
	ctx, cancelAll := context.WithCancel(r.Context())
	defer cancelAll()
	results := make(chan attemptResult, len(replicas))
	launch := func(i int) {
		go func() {
			resp, err := c.attempt(ctx, r, id, replicas[i], replicas[0], i, body)
			results <- attemptResult{worker: replicas[i], attempt: i, resp: resp, err: err}
		}()
	}
	budget := c.hedgeBudget()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	if !hedge {
		timer.Stop()
	}
	launch(0)
	next, pending := 1, 1
	var lastFail attemptResult
	lastFail.err = fmt.Errorf("no attempt completed")
	for {
		select {
		case got := <-results:
			pending--
			if !retryable(got) {
				return got, hedges
			}
			if got.err != nil {
				c.reg.Counter("fleet.proxy.transport_errors").Inc()
			}
			if got.resp != nil || lastFail.resp == nil {
				lastFail = got
			}
			if next < len(replicas) {
				c.reg.Counter("fleet.failovers").Inc()
				launch(next)
				next++
				pending++
				if hedge {
					// Pre-Go-1.23 timer semantics: the timer may have fired
					// while this failover was being handled, leaving a stale
					// tick in timer.C that Reset does not clear — drain it or
					// the next select launches one premature hedge.
					if !timer.Stop() {
						select {
						case <-timer.C:
						default:
						}
					}
					timer.Reset(budget)
				}
			} else if pending == 0 {
				return lastFail, hedges
			}
		case <-timer.C:
			if next < len(replicas) {
				c.reg.Counter("fleet.hedges").Inc()
				hedges++
				launch(next)
				next++
				pending++
				timer.Reset(budget)
			}
		case <-ctx.Done():
			return attemptResult{worker: replicas[0], err: ctx.Err()}, hedges
		}
	}
}

// attempt issues one worker request under the request's ID and buffers
// the reply. Non-owner attempts (i > 0) carry X-Mirage-Owner naming the
// key's owner — the worker's peering hook asks the owner for the bytes
// before simulating — and X-Mirage-Hedge with the attempt number for the
// worker's access log.
// Client-supplied X-Mirage-* headers are stripped before forwarding: they
// are fleet-internal routing metadata, and a forged X-Mirage-Owner would
// point the worker's peer fetch at an attacker-chosen URL whose reply gets
// cached and persisted as the canonical result for the key.
func (c *Coordinator) attempt(ctx context.Context, r *http.Request, id, worker, owner string, i int, body []byte) (*workerResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, worker+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	stripMirageHeaders(req.Header)
	req.Header.Set("X-Request-ID", id)
	if i > 0 {
		req.Header.Set("X-Mirage-Owner", owner)
		req.Header.Set("X-Mirage-Hedge", strconv.Itoa(i))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &workerResponse{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// hopHeaders are not forwarded in either direction.
var hopHeaders = map[string]bool{
	"Connection":        true,
	"Keep-Alive":        true,
	"Te":                true,
	"Trailer":           true,
	"Transfer-Encoding": true,
	"Upgrade":           true,
	"Content-Length":    true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopHeaders[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// stripMirageHeaders drops every X-Mirage-* header from an outbound worker
// request; only the coordinator itself may stamp fleet routing metadata.
func stripMirageHeaders(h http.Header) {
	for k := range h {
		if strings.HasPrefix(http.CanonicalHeaderKey(k), "X-Mirage-") {
			h.Del(k)
		}
	}
}

// logProxy emits the coordinator's one access-log line per request.
func (c *Coordinator) logProxy(r *http.Request, id, route, key, worker string, attempt, hedges, status int, dur time.Duration) {
	if c.logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("request_id", id),
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("worker", worker),
		slog.Int("status", status),
		slog.Int("attempt", attempt),
		slog.Int("hedges", hedges),
		slog.Int64("dur_us", dur.Microseconds()),
	}
	if key != "" {
		attrs = append(attrs, slog.String("key", key))
	}
	c.logger.LogAttrs(context.Background(), slog.LevelInfo, "proxy", attrs...)
}
