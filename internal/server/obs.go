// Serving observability (DESIGN.md §12): request IDs, per-request step
// timelines exported as a Chrome trace, the structured JSON access log, and
// the live /debug/statusz page.
//
// Every request gets an ID (X-Request-ID honored when sane, generated
// otherwise) and a reqTrace that rides its context — including into the
// singleflight flight context, which keeps the leader's values — so steps
// recorded on the flight goroutine (admission wait, simulate, encode)
// attach to the leading request. Each step lands on the bounded
// telemetry.TraceSink ring served at /debug/requests/trace the moment it
// ends; the enclosing "request" event lands when the request does, with
// the access-log line's fields as its args.

package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// maxRequestIDLen bounds client-supplied X-Request-ID values; longer or
// non-printable IDs are replaced with a generated one so log lines and
// trace exports stay parseable.
const maxRequestIDLen = 64

// reqTrace is the per-request observability record. The handler goroutine
// and the flight goroutine both write to it (the flight context carries
// the leader's trace), so mutable state sits behind a mutex; steps go
// straight to the ring, which has its own. All methods
// are safe on a nil receiver: internal callers that construct requests
// without the instrument middleware (tests hitting handlers directly)
// simply record nothing.
type reqTrace struct {
	seq   int64
	id    string
	route string
	start time.Time
	// Fleet attribution, copied off the coordinator's request headers at
	// creation (immutable): owner is the X-Mirage-Owner peer-fetch hint,
	// hedge is the X-Mirage-Hedge attempt number on a re-issued request.
	owner string
	hedge string
	// sink is the server's bounded trace ring (nil: tracing off); epoch is
	// the server's start, the zero of every event timestamp.
	sink  *telemetry.TraceSink
	epoch time.Time

	mu        sync.Mutex
	key       string
	role      string // "leader", "waiter" or "" (hit / non-simulation route)
	cache     string // "miss", "hit" or "" (non-simulation route)
	leader    string // request ID of the flight leader that computed the result
	fault     string // injected chaos fault kind, if any (MarkFault)
	peer      string // owner URL the bytes were peer-fetched from, if any
	deadline  time.Duration
	queueWait time.Duration
}

// requestID is the nil-safe accessor for rt.id (immutable after creation).
func (rt *reqTrace) requestID() string {
	if rt == nil {
		return ""
	}
	return rt.id
}

// step records one finished request step — admission, cache_lookup,
// singleflight_wait, peer_fetch, simulate, encode or write — on the trace
// ring as it ends: lane = request seq, microseconds since server start,
// args (owned by the ring from here on) plus the request ID.
func (rt *reqTrace) step(name string, start time.Time, dur time.Duration, args map[string]any) {
	if rt == nil || rt.sink == nil {
		return
	}
	if args == nil {
		args = make(map[string]any, 1)
	}
	args["request_id"] = rt.id
	rt.sink.Complete(name, "server", start.Sub(rt.epoch).Microseconds(), dur.Microseconds(), int(rt.seq), args)
}

func (rt *reqTrace) setKey(key string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.key = key
	rt.mu.Unlock()
}

func (rt *reqTrace) setOutcome(cache, role, leader string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.cache, rt.role, rt.leader = cache, role, leader
	rt.mu.Unlock()
}

func (rt *reqTrace) setDeadline(d time.Duration) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.deadline = d
	rt.mu.Unlock()
}

func (rt *reqTrace) setQueueWait(d time.Duration) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.queueWait = d
	rt.mu.Unlock()
}

func (rt *reqTrace) setFault(kind string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.fault = kind
	rt.mu.Unlock()
}

// ownerHint is the nil-safe accessor for the X-Mirage-Owner peer-fetch
// hint the coordinator attached when routing to a non-owner worker.
func (rt *reqTrace) ownerHint() string {
	if rt == nil {
		return ""
	}
	return rt.owner
}

func (rt *reqTrace) setPeer(owner string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.peer = owner
	rt.mu.Unlock()
}

func (rt *reqTrace) faultKind() string {
	if rt == nil {
		return ""
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.fault
}

// traceCtxKey carries the *reqTrace through the request context and — via
// the singleflight flight context, which keeps values — to the flight
// goroutine.
type traceCtxKey struct{}

func withTrace(ctx context.Context, rt *reqTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, rt)
}

func traceFrom(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(traceCtxKey{}).(*reqTrace)
	return rt
}

// withStep times f and records it as a step of the request trace carried
// by ctx (the leader's trace, when called on a flight goroutine).
func withStep(ctx context.Context, name string, f func() error) error {
	start := time.Now()
	err := f()
	traceFrom(ctx).step(name, start, time.Since(start), nil)
	return err
}

// MarkFault records an injected fault kind against the request trace and
// telemetry registry carried by ctx: the access-log entry for the affected
// request gains a "fault" field and the registry counter
// "server.chaos.faults.<kind>" is incremented. Fault-injecting backends
// (internal/chaos) call this so observability stays truthful under failure;
// it is safe when ctx carries neither a trace nor a registry.
func MarkFault(ctx context.Context, kind string) {
	traceFrom(ctx).setFault(kind)
	runner.RegistryFrom(ctx).Counter("server.chaos.faults." + kind).Inc()
}

// requestIDSeq backs the fallback ID generator; crypto/rand failing is
// practically impossible, but an access log must never lose a request over it.
var requestIDSeq atomic.Int64

// newRequestID generates a 16-hex-character random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", requestIDSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// RequestID is the request ID a request is logged and traced under: a
// sane client-supplied X-Request-ID (printable ASCII, at most
// maxRequestIDLen, no '"' so log lines stay unambiguous), or a generated
// one otherwise. The fleet coordinator applies the same rule once per
// request and forwards the result, so its log line and every worker
// attempt's share one ID.
func RequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > maxRequestIDLen {
		return newRequestID()
	}
	for _, c := range id {
		if c < 0x21 || c > 0x7e || c == '"' {
			return newRequestID()
		}
	}
	return id
}

// statusWriter captures the status code and body size for the access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument is the outermost middleware on every route: it assigns the
// request ID, names the request's trace lane, installs the trace into the
// context, echoes X-Request-ID, captures status/bytes, records the
// per-route latency histogram, and at the end emits the enclosing
// "request" trace event and the structured access-log line from one field
// list.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt := &reqTrace{
			seq:   s.reqSeq.Add(1),
			id:    RequestID(r),
			route: route,
			start: time.Now(),
			owner: r.Header.Get("X-Mirage-Owner"),
			hedge: r.Header.Get("X-Mirage-Hedge"),
			sink:  s.reqSink,
			epoch: s.started,
		}
		w.Header().Set("X-Request-ID", rt.id)
		s.reqSink.NameThread(int(rt.seq), rt.id+" "+route)
		sw := &statusWriter{ResponseWriter: w}
		s.setInflight(rt, true)
		defer func() {
			s.setInflight(rt, false)
			dur := time.Since(rt.start)
			s.reg.Histogram("server.http.latency_us." + route).Observe(dur.Microseconds())
			s.finishRequest(rt, sw, dur)
		}()
		h(sw, r.WithContext(withTrace(r.Context(), rt)))
	}
}

func (s *Server) setInflight(rt *reqTrace, in bool) {
	s.inflightMu.Lock()
	if in {
		if s.inflight == nil {
			s.inflight = make(map[int64]*reqTrace)
		}
		s.inflight[rt.seq] = rt
	} else {
		delete(s.inflight, rt.seq)
	}
	s.inflightMu.Unlock()
}

// finishRequest records the finished request once: its access-log fields
// become both the "request" trace event's args and the access-log line, so
// the two carry the same facts.
func (s *Server) finishRequest(rt *reqTrace, sw *statusWriter, dur time.Duration) {
	if s.reqSink == nil && s.logger == nil {
		return
	}
	fields := rt.fields(sw, dur)
	if s.reqSink != nil {
		args := make(map[string]any, len(fields))
		for _, f := range fields {
			args[f.Key] = f.Value.Any()
		}
		s.reqSink.Complete("request", "server", rt.start.Sub(rt.epoch).Microseconds(), dur.Microseconds(), int(rt.seq), args)
	}
	if s.logger != nil {
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "request", fields...)
	}
}

// fields is the access-log field list: request ID, route, status, bytes,
// duration, job key, cache outcome, flight role, the leader a waiter or
// hit was served from, deadline budget, a leader's queue wait, the chaos
// fault kind injected into the serving flight, the peer the bytes were
// fetched from, and the coordinator's hedge attempt number.
func (rt *reqTrace) fields(sw *statusWriter, dur time.Duration) []slog.Attr {
	attrs := []slog.Attr{
		slog.String("request_id", rt.id),
		slog.String("route", rt.route),
		slog.Int("status", sw.status()),
		slog.Int64("bytes", sw.bytes),
		slog.Int64("dur_us", dur.Microseconds()),
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.key != "" {
		attrs = append(attrs, slog.String("key", rt.key))
	}
	if rt.cache != "" {
		attrs = append(attrs, slog.String("cache", rt.cache))
	}
	if rt.role != "" {
		attrs = append(attrs, slog.String("role", rt.role))
	}
	if rt.leader != "" && rt.leader != rt.id {
		attrs = append(attrs, slog.String("leader", rt.leader))
	}
	if rt.deadline > 0 {
		attrs = append(attrs, slog.Int64("deadline_ms", rt.deadline.Milliseconds()))
	}
	if rt.role == "leader" {
		attrs = append(attrs, slog.Int64("queue_wait_us", rt.queueWait.Microseconds()))
	}
	if rt.fault != "" {
		attrs = append(attrs, slog.String("fault", rt.fault))
	}
	if rt.peer != "" {
		attrs = append(attrs, slog.String("peer", rt.peer))
	}
	if rt.hedge != "" {
		attrs = append(attrs, slog.String("hedge", rt.hedge))
	}
	return attrs
}

// handleRequestTrace serves the bounded ring of recent request step
// timelines as a Chrome trace_event JSON array (chrome://tracing, Perfetto).
func (s *Server) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.reqSink.WriteJSON(w); err != nil {
		s.reg.Counter("server.trace.write_errors").Inc()
		if s.logger != nil {
			s.logger.Error("request trace write failed", "error", err)
		}
	}
}

// buildString summarizes the binary for statusz: module path/version plus
// VCS revision when the build recorded one.
func buildString() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	out := bi.Main.Path
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		out += "@" + bi.Main.Version
	}
	rev, modified := "", false
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			rev = st.Value
		case "vcs.modified":
			modified = st.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		out += " rev " + rev
		if modified {
			out += " (modified)"
		}
	}
	return out + " " + bi.GoVersion
}

// handleStatusz renders the live serving state: uptime, build info, drain
// state, cache size and hit ratio, and every in-flight request with its
// age, job key, role and the number of requests sharing its flight.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	draining, active := s.draining, s.active
	s.mu.Unlock()

	executed := s.reg.Counter("server.jobs.executed").Value()
	hits := s.reg.Counter("server.singleflight.hits").Value()
	hitRatio := 0.0
	if executed+hits > 0 {
		hitRatio = float64(hits) / float64(executed+hits)
	}

	type row struct {
		seq            int64
		id, route, key string
		role           string
		age            time.Duration
		waiters        int
	}
	s.inflightMu.Lock()
	rows := make([]row, 0, len(s.inflight))
	byKey := make(map[string]int)
	for _, rt := range s.inflight {
		rt.mu.Lock()
		rows = append(rows, row{
			seq: rt.seq, id: rt.id, route: rt.route, key: rt.key,
			role: rt.role, age: now.Sub(rt.start),
		})
		if rt.key != "" {
			byKey[rt.key]++
		}
		rt.mu.Unlock()
	}
	s.inflightMu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "miraged statusz\n\n")
	fmt.Fprintf(w, "uptime:            %s\n", now.Sub(s.started).Round(time.Millisecond))
	fmt.Fprintf(w, "build:             %s\n", s.build)
	fmt.Fprintf(w, "draining:          %v\n", draining)
	fmt.Fprintf(w, "active_requests:   %d\n", active)
	fmt.Fprintf(w, "cache_entries:     %d\n", s.cache.Len())
	fmt.Fprintf(w, "cache_bytes:       %d\n", s.cache.Bytes())
	fmt.Fprintf(w, "jobs_executed:     %d\n", executed)
	fmt.Fprintf(w, "singleflight_hits: %d\n", hits)
	fmt.Fprintf(w, "cache_hit_ratio:   %.3f\n", hitRatio)
	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		fmt.Fprintf(w, "store_entries:     %d\n", st.Len())
		fmt.Fprintf(w, "store_log_bytes:   %d\n", st.LogBytes())
		fmt.Fprintf(w, "store_live_bytes:  %d\n", st.LiveBytes())
		fmt.Fprintf(w, "store_hits:        %d\n", stats.Hits)
		fmt.Fprintf(w, "store_puts:        %d\n", stats.Puts)
		fmt.Fprintf(w, "store_recovered:   %d\n", stats.Recovered)
	}
	fmt.Fprintf(w, "\nin-flight requests (%d):\n", len(rows))
	for _, rw := range rows {
		role := rw.role
		if role == "" {
			role = "-"
		}
		key := rw.key
		if key == "" {
			key = "-"
		}
		// A request counts itself, so "waiters" here is sharers-1.
		waiters := 0
		if rw.key != "" {
			waiters = byKey[rw.key] - 1
		}
		fmt.Fprintf(w, "  #%d id=%s route=%s age=%s role=%s waiters=%d key=%s\n",
			rw.seq, rw.id, rw.route, rw.age.Round(time.Millisecond), role, waiters, key)
	}
}
