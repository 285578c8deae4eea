// The HTTP server: routing, admission control, singleflight response
// caching, status mapping and graceful shutdown. See DESIGN.md §10.

package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// StatusClientClosedRequest is the non-standard status (nginx convention)
// recorded when the client went away before the response was ready. No
// client observes it; it keeps logs and telemetry unambiguous.
const StatusClientClosedRequest = 499

// Admission-control rejections wrap runner.ErrTransient so a rejected
// flight is evicted from the response cache instead of poisoning the key:
// the identical request after the load spike must retry, not replay a 429.
var (
	errSaturated = fmt.Errorf("too many queued jobs: %w", runner.ErrTransient)
	errDraining  = fmt.Errorf("server is draining: %w", runner.ErrTransient)
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from New.
type Config struct {
	// Backend runs the simulations; nil selects SimBackend.
	Backend Backend
	// MaxInFlight bounds jobs executing concurrently (default 2). A "job"
	// is a deduplicated unit of simulation work — cache hits and joined
	// flights consume no slot.
	MaxInFlight int
	// MaxQueue bounds jobs waiting for a slot beyond MaxInFlight (default
	// 8); past it requests fail fast with 429.
	MaxQueue int
	// DefaultTimeout applies when a request names none (default 60s);
	// MaxTimeout caps what a request may ask for (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Parallel is the worker budget of one figure or sweep request (0 means
	// GOMAXPROCS, 1 serial). /v1/run ignores it and always runs its mix and
	// its reference serially. Responses are byte-identical at any setting;
	// only latency changes.
	Parallel int
	// Scales are the named experiment scales requests may select; nil
	// means DefaultScales.
	Scales map[string]experiments.Scale
	// Telemetry instruments the server; nil allocates a fresh one. Every
	// simulation it launches counts into its Registry only, never its Trace
	// sink, and publishes its counts once, when it ends. Counters are safe
	// under concurrent requests; /v1/metrics exports them.
	Telemetry *telemetry.Telemetry
	// Logger receives the structured JSON access log (one line per
	// request) and server-side error events. nil disables logging.
	Logger *slog.Logger
	// TraceEvents bounds the ring buffer of recent request step timelines
	// served at /debug/requests/trace (default 4096; negative disables
	// trace retention entirely).
	TraceEvents int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Store is the optional persistent result store behind the in-memory
	// response cache. When set, response bytes survive restarts: a miss in
	// memory consults the store before admitting a simulation, and every
	// successful flight writes its bytes through. The caller owns the
	// store's lifecycle (Open/Close); nil disables the disk tier.
	Store *store.Store
	// CacheMaxEntries and CacheMaxBytes bound the in-memory response cache
	// (defaults 4096 entries / 256 MiB; negative disables that bound).
	// Without them a long-lived server leaks one encoded response body per
	// distinct job key ever served.
	CacheMaxEntries int
	CacheMaxBytes   int64
	// PeerFetch, when set, lets this worker ask a fleet peer for already-
	// computed response bytes before simulating. It is consulted by the
	// flight leader — after the local memory and disk tiers miss, before
	// admission — only when the request arrived with an X-Mirage-Owner
	// header naming the key's owning worker (the coordinator sets it when
	// hedging or failing over to a non-owner). A (bytes, true) return is
	// cached locally exactly like a computed result; (nil, false) falls
	// through to a normal simulation. Must be safe for concurrent use and
	// respect ctx.
	PeerFetch func(ctx context.Context, owner, key string) ([]byte, bool)
	// PeerAuth, when non-empty, is the fleet's shared peering secret: GET
	// /internal/peer/cache requires the PeerAuthHeader to match it
	// (constant-time) and answers 403 otherwise, so cached and persisted
	// result bytes are not readable — or enumerable — by arbitrary
	// clients that can reach a worker's listener. Every worker in a fleet
	// must share one value (fleet.NewPeerFetch sends it).
	PeerAuth string
}

// PeerAuthHeader carries the shared peering secret (Config.PeerAuth) on
// fleet-internal cache-peering requests.
const PeerAuthHeader = "X-Mirage-Peer-Auth"

// Server is the miraged HTTP API. Create with New; it implements
// http.Handler.
type Server struct {
	cfg     Config
	backend Backend
	tel     *telemetry.Telemetry
	reg     *telemetry.Registry
	mux     *http.ServeMux

	// cache deduplicates work and memoizes encoded response bodies by
	// canonical job key: concurrent identical requests share one flight,
	// later ones are served bytes with zero simulation.
	cache runner.Cache[string, cached]

	// simTel is what every simulation reports into: the server registry
	// alone. The trace sink of cfg.Telemetry would retain every event of
	// every simulation for the life of the process.
	simTel *telemetry.Telemetry

	// slots is the admission semaphore (capacity MaxInFlight); queued
	// counts waiters beyond it, bounded by MaxQueue.
	slots  chan struct{}
	queued chan struct{}

	// drainCh is closed exactly once when Shutdown begins, so slot waiters
	// blocked in admit observe the drain without polling the mutex.
	drainCh chan struct{}

	mu       sync.Mutex
	draining bool
	active   int
	idle     chan struct{} // closed when draining and active hits 0

	// Observability state (obs.go): the access logger, request sequence
	// numbers, the bounded ring of recent step timelines and the in-flight
	// request table behind /debug/statusz.
	logger  *slog.Logger
	started time.Time
	build   string
	reqSeq  atomic.Int64
	reqSink *telemetry.TraceSink

	inflightMu sync.Mutex
	inflight   map[int64]*reqTrace
}

// cached is one response-cache value: the encoded body plus the request ID
// of the flight leader that produced it and the chaos fault kind injected
// into that flight, so waiters and later hits attribute their log lines
// from the value they were served.
type cached struct {
	body          []byte
	leader, fault string
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		cfg.Backend = SimBackend{}
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.TraceEvents == 0 {
		cfg.TraceEvents = 4096
	}
	if cfg.CacheMaxEntries == 0 {
		cfg.CacheMaxEntries = 4096
	}
	if cfg.CacheMaxBytes == 0 {
		cfg.CacheMaxBytes = 256 << 20
	}
	s := &Server{
		cfg:     cfg,
		backend: cfg.Backend,
		tel:     cfg.Telemetry,
		reg:     cfg.Telemetry.Reg(),
		simTel:  &telemetry.Telemetry{Registry: cfg.Telemetry.Reg()},
		slots:   make(chan struct{}, cfg.MaxInFlight),
		queued:  make(chan struct{}, cfg.MaxQueue),
		drainCh: make(chan struct{}),
		logger:  cfg.Logger,
		started: time.Now(),
		build:   buildString(),
	}
	if cfg.TraceEvents > 0 {
		s.reqSink = telemetry.NewBoundedTraceSink(cfg.TraceEvents)
	}
	// A request lingers this long after its deadline for the flight to
	// surface a partial-result error; the e2e contract returns within
	// 100ms of cancellation.
	s.cache.AbandonGrace = 40 * time.Millisecond
	if cfg.CacheMaxEntries > 0 {
		s.cache.MaxEntries = cfg.CacheMaxEntries
	}
	if cfg.CacheMaxBytes > 0 {
		s.cache.MaxBytes = cfg.CacheMaxBytes
	}
	s.cache.Size = func(c cached) int64 { return int64(len(c.body)) }
	if cfg.Store != nil {
		s.cache.Backing = &storeAdapter{st: cfg.Store, reg: s.reg, logger: cfg.Logger}
	}
	s.mux = http.NewServeMux()
	for pattern, route := range JobRoutes {
		s.mux.HandleFunc(pattern, s.instrument(route, s.track(s.handleJob(route))))
	}
	s.mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /v1/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /internal/peer/cache", s.instrument("peercache", s.handlePeerCache))
	s.mux.HandleFunc("GET /debug/statusz", s.instrument("statusz", s.handleStatusz))
	s.mux.HandleFunc("GET /debug/requests/trace", s.instrument("reqtrace", s.handleRequestTrace))
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Telemetry returns the server's telemetry (for embedding callers and
// tests asserting on counters).
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// ResetCache drops memoized response bodies (tests and memory bounding).
func (s *Server) ResetCache() { s.cache.Reset() }

// ActiveRequests reports requests currently inside simulation handlers.
func (s *Server) ActiveRequests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Shutdown drains the server: new simulation requests are rejected with
// 503, in-flight handlers run to completion, and Shutdown returns once the
// server is idle or ctx ends (returning ctx.Err() with handlers still
// active). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	if s.active == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// track wraps a simulation handler with request accounting: the draining
// check, the active-request gauge, and the total-request counter.
func (s *Server) track(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("server.requests").Inc()
		if !s.enter() {
			s.writeError(w, http.StatusServiceUnavailable, "server is draining", nil, 5,
				"server.requests.draining")
			return
		}
		defer s.leave()
		h(w, r)
	}
}

func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	s.reg.Gauge("server.requests.active").Set(float64(s.active))
	return true
}

func (s *Server) leave() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	s.reg.Gauge("server.requests.active").Set(float64(s.active))
	if s.draining && s.active == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// admit acquires an execution slot for a flight leader, or fails fast:
// errDraining when the server is shutting down, errSaturated when both the
// slots and the wait queue are full, ctx.Err() when the flight is
// abandoned while queued. Cache hits never reach admit — only the leader
// of a new flight pays for a slot.
//
// The queued wait selects on drainCh too: checking the draining flag only
// on entry left a TOCTOU hole where a request parked in the queue when
// Shutdown began could still grab a freed slot and start a fresh
// simulation mid-drain.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case <-s.drainCh:
		return nil, errDraining
	default:
	}
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	default:
	}
	select {
	case s.queued <- struct{}{}:
		defer func() { <-s.queued }()
	default:
		return nil, errSaturated
	}
	select {
	case s.slots <- struct{}{}:
		// A drain may have begun while we waited; prefer rejecting over
		// starting new work (the slot goes straight back).
		select {
		case <-s.drainCh:
			<-s.slots
			return nil, errDraining
		default:
		}
		return func() { <-s.slots }, nil
	case <-s.drainCh:
		return nil, errDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// storeAdapter bridges the persistent result store into the cache's
// Backing interface, instrumenting both directions. Only the body is
// persisted: a value loaded from disk names no leader or fault, because no
// request in this process computed it. A failed write-through is counted
// and logged but never surfaces to the request: the response was already
// computed, only its persistence is lost.
type storeAdapter struct {
	st     *store.Store
	reg    *telemetry.Registry
	logger *slog.Logger
}

func (a *storeAdapter) Load(key string) (cached, bool) {
	v, ok := a.st.Get(key)
	if ok {
		a.reg.Counter("server.store.hits").Inc()
	} else {
		a.reg.Counter("server.store.misses").Inc()
	}
	return cached{body: v}, ok
}

func (a *storeAdapter) Store(key string, v cached) {
	if err := a.st.Put(key, v.body); err != nil {
		a.reg.Counter("server.store.write_errors").Inc()
		if a.logger != nil {
			a.logger.Error("store write failed", "key", key, "error", err)
		}
		return
	}
	a.reg.Counter("server.store.writes").Inc()
}

// requestContext derives the job context: the client's cancellation, the
// effective deadline, and the server's telemetry registry for the runner's
// scheduling counters.
func (s *Server) requestContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := runner.WithTelemetry(r.Context(), s.reg)
	return context.WithTimeout(ctx, timeout)
}

// execute runs one deduplicated job: the first caller per key leads a
// flight (admission slot, then fn), everyone else shares it. The returned
// Outcome is what the access log and singleflight counters are built on;
// execute also records the cache_lookup / singleflight_wait / admission
// steps and links waiters and cache hits back to the leading request via
// the leader and fault carried on the cached value.
func (s *Server) execute(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) ([]byte, runner.Outcome, error) {
	rt := traceFrom(ctx)
	rt.setKey(key)
	start := time.Now()
	v, out, err := s.cache.DoContext(ctx, key, func(fctx context.Context) (cached, error) {
		// Only the flight leader's fn runs, and fctx kept the leader's
		// context values, so this trace is the leading request's: steps
		// recorded here (admission wait) land on the leader's timeline
		// even though they run on the flight goroutine.
		lrt := traceFrom(fctx)
		// The value records who computed it and any fault injected on the
		// way (fn return happens-before the waiters' wakeup), success or
		// error alike: a cached error is attributed like cached bytes.
		settle := func(b []byte, err error) (cached, error) {
			return cached{b, lrt.requestID(), lrt.faultKind()}, err
		}
		// Fleet cache peering: when the coordinator routed this request to a
		// non-owner worker (hedge or failover) it names the key's owner in
		// X-Mirage-Owner; ask that owner for the bytes before paying for a
		// slot and a simulation, so each key is computed once fleet-wide.
		// A peer miss (or any fetch failure) falls through to a normal run.
		if owner := lrt.ownerHint(); owner != "" && s.cfg.PeerFetch != nil {
			var b []byte
			var ok bool
			_ = withStep(fctx, "peer_fetch", func() error {
				b, ok = s.cfg.PeerFetch(fctx, owner, key)
				return nil
			})
			if ok {
				s.reg.Counter("server.peer.hits").Inc()
				lrt.setPeer(owner)
				return settle(b, nil)
			}
			s.reg.Counter("server.peer.fetch_misses").Inc()
		}
		s.reg.Histogram("server.admit.queue_depth").Observe(int64(len(s.queued)))
		admitStart := time.Now()
		release, aerr := s.admit(fctx)
		wait := time.Since(admitStart)
		lrt.setQueueWait(wait)
		lrt.step("admission", admitStart, wait, nil)
		s.reg.Histogram("server.admit.queue_wait_us").Observe(wait.Microseconds())
		if aerr != nil {
			return settle(nil, aerr)
		}
		defer release()
		s.reg.Counter("server.jobs.executed").Inc()
		return settle(fn(fctx))
	})
	wait := time.Since(start)
	switch out {
	case runner.OutcomeLeader:
		rt.setOutcome("miss", "leader", rt.requestID())
		rt.step("cache_lookup", start, 0, map[string]any{"outcome": "miss"})
		rt.step("singleflight_wait", start, wait, map[string]any{"role": "leader"})
	case runner.OutcomeWaiter:
		rt.setOutcome("miss", "waiter", v.leader)
		rt.setFault(v.fault)
		rt.step("cache_lookup", start, 0, map[string]any{"outcome": "miss"})
		rt.step("singleflight_wait", start, wait, map[string]any{"role": "waiter", "leader": v.leader})
	case runner.OutcomeHit:
		rt.setOutcome("hit", "", v.leader)
		rt.setFault(v.fault)
		rt.step("cache_lookup", start, wait, map[string]any{"outcome": "hit"})
	case runner.OutcomeDisk:
		// Served from the persistent store: no leader in this process
		// computed the bytes (they survived a restart).
		rt.setOutcome("disk", "", rt.requestID())
		rt.step("cache_lookup", start, wait, map[string]any{"outcome": "disk"})
	}
	return v.body, out, err
}

// --- endpoint handlers ---

// handleJob serves one JobRoutes route: parse, then the job's deadline,
// then the job through the cache and admission (execute) onto the wire
// (finish).
func (s *Server) handleJob(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, err := ReadBody(r)
		if err != nil {
			s.invalid(w, badRequest("invalid request body: %v", err))
			return
		}
		j, err := ParseJob(route, r, raw, s.cfg.Scales)
		if err != nil {
			s.invalid(w, err.(*apiError)) // ParseJob fails only with client errors
			return
		}
		// Server state no job key holds. A run's mix and its Homo-OoO
		// reference go one after the other: admission (MaxInFlight) is the
		// server's parallelism. Running the pair concurrently raised
		// miragebench's run-cold maxrss 48 -> 54 MiB on a 2-vCPU VM and cut
		// its p50 by only 5% (DESIGN.md §10). A sweep or figure fans out on
		// the configured budget.
		j.cfg.Parallel = 1
		j.cfg.Telemetry = s.simTel
		j.scale.Parallel = s.cfg.Parallel
		j.scale.Telemetry = s.simTel
		timeout := s.timeout(j.Timeout)
		traceFrom(r.Context()).setDeadline(timeout)
		ctx, cancel := s.requestContext(r, timeout)
		defer cancel()
		body, out, err := s.execute(ctx, j.Key, func(fctx context.Context) ([]byte, error) {
			var mr *core.MixResult
			var reports []*experiments.Report
			if err := withStep(fctx, "simulate", func() (err error) {
				if j.Route == "run" {
					mr, err = s.backend.Run(fctx, j.cfg)
				} else {
					reports, err = s.backend.Reports(fctx, j.scale, j.ids)
				}
				return err
			}); err != nil {
				return nil, err
			}
			var body []byte
			err := withStep(fctx, "encode", func() (err error) {
				body, err = encodeJob(j, mr, reports)
				return err
			})
			return body, err
		})
		s.finish(w, ctx, body, out, err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	draining, active := s.draining, s.active
	s.mu.Unlock()
	resp := struct {
		Status         string  `json:"status"`
		ActiveRequests int     `json:"active_requests"`
		Draining       bool    `json:"draining"`
		UptimeSeconds  float64 `json:"uptime_seconds"`
	}{status, active, draining, time.Since(s.started).Seconds()}
	w.Header().Set("Content-Type", "application/json")
	if draining {
		// A draining server rejects every job with 503, so health must say
		// so in the status code: load balancers and the fleet prober key on
		// it, and a 200-with-"draining" body kept them routing doomed work
		// here. The JSON body is unchanged for human eyes and old probes.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(resp)
}

// handlePeerCache is the fleet cache-peering endpoint: a peer worker asks
// whether this worker already holds the response bytes for a canonical job
// key, checking the in-memory cache (settled successes only) and then the
// persistent store. It never simulates, never admits, and never blocks on a
// flight in progress — a peer asking for bytes that are still being
// computed gets a 404 and simulates (or waits) on its own side, which keeps
// the peering path strictly cheap.
func (s *Server) handlePeerCache(w http.ResponseWriter, r *http.Request) {
	if s.cfg.PeerAuth != "" &&
		subtle.ConstantTimeCompare([]byte(r.Header.Get(PeerAuthHeader)), []byte(s.cfg.PeerAuth)) != 1 {
		s.reg.Counter("server.peer.denied").Inc()
		s.writeError(w, http.StatusForbidden, "peer auth required", nil, 0, "")
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		s.invalid(w, badRequest("missing key parameter"))
		return
	}
	v, ok := s.cache.Peek(key)
	body, src := v.body, "memory"
	if !ok && s.cfg.Store != nil {
		body, ok = s.cfg.Store.Get(key)
		src = "disk"
	}
	if !ok {
		s.reg.Counter("server.peer.misses").Inc()
		s.writeError(w, http.StatusNotFound, "key not cached", nil, 0, "")
		return
	}
	s.reg.Counter("server.peer.served").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src)
	_, _ = w.Write(body)
}

// handleMetrics exports the telemetry snapshot in the format RenderMetrics
// negotiates. The body renders into a buffer first so a render failure
// can still become a clean 500 and the Content-Type commits only once a
// body exists; failures writing to the client are logged and counted, not
// silently dropped.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body, contentType, err := RenderMetrics(s.tel, r)
	if err != nil {
		s.reg.Counter("server.metrics.render_errors").Inc()
		if s.logger != nil {
			s.logger.Error("metrics render failed", "error", err)
		}
		s.writeError(w, http.StatusInternalServerError, "metrics render failed", nil, 0, "")
		return
	}
	w.Header().Set("Content-Type", contentType)
	if _, err := w.Write(body); err != nil {
		s.reg.Counter("server.metrics.write_errors").Inc()
		if s.logger != nil {
			s.logger.Error("metrics write failed", "error", err)
		}
	}
}

// RenderMetrics renders tel for a /v1/metrics request and returns the body
// with its Content-Type: Prometheus text exposition when the request asks
// for it (?format=prometheus, or an Accept header naming text/plain or
// OpenMetrics), the JSON snapshot otherwise. The worker and the fleet
// coordinator both serve /v1/metrics through it.
func RenderMetrics(tel *telemetry.Telemetry, r *http.Request) ([]byte, string, error) {
	var buf bytes.Buffer
	a := r.Header.Get("Accept")
	if r.URL.Query().Get("format") == "prometheus" || strings.Contains(a, "text/plain") || strings.Contains(a, "openmetrics") {
		err := tel.WritePrometheus(&buf)
		return buf.Bytes(), "text/plain; version=0.0.4; charset=utf-8", err
	}
	err := tel.WriteMetrics(&buf)
	return buf.Bytes(), "application/json", err
}

// --- response writing ---

// errorDetail carries machine-readable failure context; today that is the
// partial-result progress of a cancelled sweep.
type errorDetail struct {
	CompletedJobs int `json:"completed_jobs"`
	TotalJobs     int `json:"total_jobs"`
}

// errorResponse is the JSON body of every non-2xx API response.
type errorResponse struct {
	Error  string       `json:"error"`
	Detail *errorDetail `json:"detail,omitempty"`
}

func (s *Server) invalid(w http.ResponseWriter, aerr *apiError) {
	s.writeError(w, aerr.status, aerr.msg, nil, 0, "server.requests.invalid")
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string, detail *errorDetail, retryAfterSec int, counter string) {
	if counter != "" {
		s.reg.Counter(counter).Inc()
	}
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(errorResponse{Error: msg, Detail: detail})
}

// finish maps an execute result onto the wire. Admission rejections map to
// 429/503 with Retry-After. Cancellation shapes are attributed by the
// flight error FIRST and the request context only as a fallback: a flight
// that settled with a real simulation error in the same instant the
// request deadline expired must surface as a 500 naming that error, not be
// masked into a "deadline exceeded" 504 just because ctx.Err() is already
// non-nil by the time we look. Only when the error itself is (or wraps) a
// context sentinel does ctx decide between deadline (504) and client-gone
// (499).
func (s *Server) finish(w http.ResponseWriter, ctx context.Context, body []byte, out runner.Outcome, err error) {
	if err == nil {
		// OutcomeDisk is Shared() but is a store hit, not a singleflight
		// one: the bytes came off disk, no in-process flight was joined.
		if out == runner.OutcomeDisk {
			s.reg.Counter("server.store.served").Inc()
		} else if out.Shared() {
			s.reg.Counter("server.singleflight.hits").Inc()
		}
		s.reg.Counter("server.requests.ok").Inc()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", cacheLabel(out))
		_ = withStep(ctx, "write", func() error {
			_, werr := w.Write(body)
			return werr
		})
		return
	}
	switch {
	case errors.Is(err, errDraining):
		s.writeError(w, http.StatusServiceUnavailable, errDraining.Error(), nil, 5,
			"server.requests.draining")
	case errors.Is(err, errSaturated):
		s.writeError(w, http.StatusTooManyRequests, errSaturated.Error(), nil, 1,
			"server.requests.saturated")
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusGatewayTimeout,
			"deadline exceeded: "+err.Error(), canceledDetail(err), 0,
			"server.requests.deadline")
	case errors.Is(err, context.Canceled):
		if ctx.Err() == context.DeadlineExceeded {
			// The flight was cancelled on our request's behalf when its
			// deadline fired; report the deadline, not a bare cancellation.
			s.writeError(w, http.StatusGatewayTimeout,
				"deadline exceeded: "+err.Error(), canceledDetail(err), 0,
				"server.requests.deadline")
			return
		}
		// The client is gone; the status is for logs and telemetry only.
		s.reg.Counter("server.requests.cancelled").Inc()
		w.WriteHeader(StatusClientClosedRequest)
	default:
		s.writeError(w, http.StatusInternalServerError,
			"simulation failed: "+err.Error(), canceledDetail(err), 0,
			"server.requests.failed")
	}
}

// cacheLabel maps an execute outcome onto the X-Cache response header that
// clients (mirageload, the restart e2e test) key their hit accounting on.
func cacheLabel(out runner.Outcome) string {
	switch out {
	case runner.OutcomeHit:
		return "hit"
	case runner.OutcomeDisk:
		return "disk"
	}
	return "miss"
}

// canceledDetail extracts partial-result progress when the error carries a
// *runner.Canceled (directly or through JobError/errors.Join wrapping).
func canceledDetail(err error) *errorDetail {
	var ce *runner.Canceled
	if errors.As(err, &ce) {
		return &errorDetail{CompletedJobs: ce.Completed, TotalJobs: ce.Total}
	}
	return nil
}

// encodeJob renders a job's result: a /v1/run response, the sweep's report
// array, or the figure's single report. Fields derive only from the
// deterministic simulation outcome, so bodies are byte-identical across
// processes and parallelism settings.
func encodeJob(j *Job, mr *core.MixResult, reports []*experiments.Report) ([]byte, error) {
	if j.Route == "run" {
		return encodeRunResponse(j, mr)
	}
	var buf bytes.Buffer
	var err error
	switch {
	case j.Route == "sweep":
		err = experiments.WriteReportsJSON(&buf, reports)
	case len(reports) != 1:
		err = fmt.Errorf("experiment %s yielded %d reports", j.ids[0], len(reports))
	default:
		err = reports[0].WriteJSON(&buf)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeRunResponse renders a /v1/run result.
func encodeRunResponse(j *Job, mr *core.MixResult) ([]byte, error) {
	type runApp struct {
		Name         string  `json:"name"`
		IPC          float64 `json:"ipc"`
		MemoizedFrac float64 `json:"memoized_frac"`
		OoOShare     float64 `json:"ooo_share"`
		Migrations   int64   `json:"migrations"`
	}
	type runResponse struct {
		Key           string   `json:"key"`
		Topology      string   `json:"topology"`
		Policy        string   `json:"policy,omitempty"`
		Mix           []string `json:"mix"`
		STP           float64  `json:"stp"`
		EnergyPJ      float64  `json:"energy_pj"`
		AreaMM2       float64  `json:"area_mm2"`
		OoOActiveFrac float64  `json:"ooo_active_frac"`
		Apps          []runApp `json:"apps"`
	}
	resp := runResponse{
		Key:           j.Key,
		Topology:      mr.Config.Topology.String(),
		Policy:        string(mr.Config.Policy),
		Mix:           j.cfg.Benchmarks,
		STP:           mr.STP,
		EnergyPJ:      mr.EnergyPJ,
		AreaMM2:       mr.AreaMM2,
		OoOActiveFrac: mr.OoOActiveFrac,
		// Non-nil so an empty mix encodes as "apps": [] — clients parse a
		// JSON array here and a shape flip to null is an API break.
		Apps: []runApp{},
	}
	for _, a := range mr.Cluster.Apps {
		app := runApp{Name: a.Name, IPC: a.IPC, Migrations: int64(a.Migrations)}
		if a.Insts > 0 {
			app.MemoizedFrac = float64(a.MemoizedInsts) / float64(a.Insts)
		}
		if a.Cycles > 0 {
			app.OoOShare = float64(a.OoOCycles) / float64(a.Cycles)
		}
		resp.Apps = append(resp.Apps, app)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
