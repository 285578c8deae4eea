// Command miraged serves the simulator as an HTTP/JSON API — as a single
// worker (the default), or as a fleet coordinator sharding work across
// worker miraged instances.
//
// Usage:
//
//	miraged [-addr :8080] [-max-inflight 2] [-queue 8] [-parallel 0]
//	        [-timeout 60s] [-max-timeout 10m] [-drain-timeout 30s]
//	        [-store-dir DIR] [-store-max-bytes N]
//	        [-cache-entries 4096] [-cache-bytes N]
//	        [-peers http://w1,http://w2,...] [-peer-auth SECRET]
//	        [-pprof-http] [-log-format json|text] [-log-level info]
//
//	miraged -coordinator -workers http://w1:8081,http://w2:8082,... \
//	        [-addr :8080] [-drain-timeout 30s] [-probe-interval 1s]
//	        [-hedge-min 100ms] [-hedge-max 10s]
//	        [-log-format json|text] [-log-level info]
//
// -addr, -drain-timeout and the -log-* flags apply in both modes; every
// other flag belongs to one mode, and setting it in the other is an error
// rather than silently ignored. Profile a live server through
// /debug/pprof/profile (with -pprof-http) and read its counters from
// /v1/metrics.
//
// In coordinator mode the process simulates nothing itself: it derives the
// canonical job key from each request (the same derivation the workers
// cache under), routes it to the key's owner on a consistent-hash ring over
// -workers, hedges to the next distinct replica when the owner exceeds the
// coordinator's own observed p99 latency (clamped to [-hedge-min,
// -hedge-max]), fails over on transport errors and 502/503, and polls every
// worker's /v1/healthz each -probe-interval, re-sharding the ring when a
// worker leaves or returns. Requests routed to a non-owner carry an
// X-Mirage-Owner header; the worker asks that owner's cache before
// simulating (cache peering), so each key is computed once fleet-wide.
// Workers only honor owner hints naming a URL on their -peers allowlist
// (client-supplied X-Mirage-* headers are stripped at the coordinator, and
// /internal/* is never proxied); with -peer-auth set, peer fetches carry
// the shared secret and /internal/peer/cache rejects requests without it.
// Responses carry X-Mirage-Shard (the worker that served) and
// X-Mirage-Hedged (the winning attempt number, when not the first).
//
// Endpoints (see DESIGN.md §10/§12 and the README "Operating miraged"
// section):
//
//	POST /v1/run              one cluster simulation
//	POST /v1/sweep            the Figure 7/8/9b arbitrator sweep
//	GET  /v1/figures/{id}     any registry experiment by ID or slug
//	GET  /v1/healthz          liveness, drain state, uptime
//	GET  /v1/metrics          telemetry as JSON, or Prometheus text
//	                          exposition with ?format=prometheus
//	GET  /debug/statusz       live serving state (in-flight requests,
//	                          cache hit ratio, build info)
//	GET  /debug/requests/trace recent request span timelines as a Chrome
//	                          trace (chrome://tracing, Perfetto)
//	GET  /debug/pprof/        net/http/pprof (with -pprof-http)
//
// Identical concurrent requests share one simulation (singleflight) and
// repeated ones are served from the response cache byte-identically. With
// -store-dir set, response bytes also persist to a checksummed append-only
// log so a restarted server answers repeat requests from disk (X-Cache:
// disk) without resimulating; corrupt or torn log records are dropped on
// open, never served. Every
// request is logged as one structured line (request ID, route, status,
// cache outcome, latency) on stderr. On SIGINT/SIGTERM the server stops
// accepting simulation work (503), drains in-flight requests up to
// -drain-timeout, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"log/slog"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxInFlight := flag.Int("max-inflight", 2, "max simulations executing concurrently")
	queue := flag.Int("queue", 8, "max simulations queued beyond -max-inflight before 429")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request deadline when the request names none")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "ceiling on per-request timeout_ms")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	parallel := flag.Int("parallel", 0, "worker budget of one figure or sweep request (0 = GOMAXPROCS, 1 = serial); responses are bit-identical at any setting")
	pprofHTTP := flag.Bool("pprof-http", false, "mount net/http/pprof under /debug/pprof/")
	logFormat := flag.String("log-format", "json", "access/lifecycle log format: json or text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	storeDir := flag.String("store-dir", "", "directory for the persistent result store (empty = no disk tier; results then live only in memory)")
	storeMaxBytes := flag.Int64("store-max-bytes", 256<<20, "size cap on the result store log; overflow evicts least-recently-used entries")
	cacheEntries := flag.Int("cache-entries", 4096, "max entries in the in-memory response cache (-1 = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "max bytes of response bodies held in memory (-1 = unlimited)")
	coordinator := flag.Bool("coordinator", false, "run as a fleet coordinator over -workers instead of simulating")
	workers := flag.String("workers", "", "comma-separated worker base URLs for -coordinator mode")
	probeInterval := flag.Duration("probe-interval", time.Second, "coordinator health-poll period per worker")
	hedgeMin := flag.Duration("hedge-min", 100*time.Millisecond, "coordinator lower clamp on the hedge latency budget")
	hedgeMax := flag.Duration("hedge-max", 10*time.Second, "coordinator upper clamp on the hedge latency budget")
	peers := flag.String("peers", "", "worker mode: comma-separated base URLs of every fleet worker (the cache-peering allowlist; empty = never fetch from a peer)")
	peerAuth := flag.String("peer-auth", "", "shared fleet peering secret: required on /internal/peer/cache and sent on peer fetches (empty = unauthenticated)")
	flag.Parse()
	checkModeFlags(*coordinator)

	if *maxInFlight < 1 || *queue < 0 || *parallel < 0 {
		fatalf("-max-inflight must be >= 1, -queue and -parallel >= 0")
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	if *coordinator {
		runCoordinator(logger, *addr, *workers, *probeInterval, *hedgeMin, *hedgeMax, *drainTimeout)
		return
	}

	tel := telemetry.New()
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{
			MaxBytes: *storeMaxBytes,
			Registry: tel.Reg(),
		})
		if err != nil {
			fatalf("opening result store: %v", err)
		}
		defer st.Close()
		logger.Info("result store open", "dir", *storeDir,
			"entries", st.Len(), "log_bytes", st.LogBytes(),
			"recovered", st.Stats().Recovered)
	}
	scfg := server.Config{
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *queue,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		Parallel:        *parallel,
		Telemetry:       tel,
		Logger:          logger,
		EnablePprof:     *pprofHTTP,
		Store:           st,
		CacheMaxEntries: *cacheEntries,
		CacheMaxBytes:   *cacheBytes,
	}
	scfg.PeerAuth = *peerAuth
	// Consulted only when a coordinator routed the request here with an
	// X-Mirage-Owner hint. The hint is client-forgeable data, so fetches are
	// allowlisted to the -peers fleet membership: a standalone worker (no
	// -peers) never peers, whatever headers arrive.
	if peerURLs := splitURLs(*peers); len(peerURLs) > 0 {
		scfg.PeerFetch = fleet.NewPeerFetch(nil, peerURLs, *peerAuth)
	}
	srv := server.New(scfg)
	// Drain the simulation layer first so queued flights observe the 503
	// path; serveAndDrain then closes listeners and idle connections.
	serveAndDrain(logger, &http.Server{Addr: *addr, Handler: srv}, *drainTimeout, srv.Shutdown,
		"serving", "addr", *addr, "inflight", *maxInFlight, "queue", *queue, "parallel", *parallel)
}

// runCoordinator is the -coordinator main loop: build the fleet front end
// over the worker list, start the health prober, serve until signalled,
// then stop probing and drain the HTTP layer.
func runCoordinator(logger *slog.Logger, addr, workers string, probeInterval, hedgeMin, hedgeMax, drainTimeout time.Duration) {
	urls := splitURLs(workers)
	if len(urls) == 0 {
		fatalf("-coordinator requires -workers with at least one URL")
	}
	coord, err := fleet.New(fleet.Config{
		Workers:       urls,
		ProbeInterval: probeInterval,
		HedgeMin:      hedgeMin,
		HedgeMax:      hedgeMax,
		Logger:        logger,
	})
	if err != nil {
		fatalf("building coordinator: %v", err)
	}
	// Converge worker health before accepting traffic, then keep probing.
	coord.ProbeOnce(context.Background())
	coord.Start()
	stopProbing := func(context.Context) error { coord.Close(); return nil }
	serveAndDrain(logger, &http.Server{Addr: addr, Handler: coord}, drainTimeout, stopProbing,
		"coordinating", "addr", addr, "workers", urls, "probe_interval", probeInterval.String())
}

// serveAndDrain serves hs and logs msg with attrs until SIGINT or SIGTERM,
// then drains within drainTimeout: the mode's own drain step first, then
// the HTTP layer. A serve error or an incomplete drain exits 1.
func serveAndDrain(logger *slog.Logger, hs *http.Server, drainTimeout time.Duration, drain func(context.Context) error, msg string, attrs ...any) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info(msg, attrs...)

	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("draining", "drain_timeout", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown failed", "error", err)
	}
	if drainErr != nil {
		logger.Error("drain incomplete", "error", drainErr)
		os.Exit(1)
	}
	logger.Info("exited cleanly")
}

// Flags that only one mode reads. Setting one in the other mode is refused:
// a coordinator given -store-dir would otherwise persist nothing, silently.
var (
	workerOnlyFlags = []string{"max-inflight", "queue", "timeout", "max-timeout",
		"parallel", "pprof-http", "store-dir", "store-max-bytes",
		"cache-entries", "cache-bytes", "peers", "peer-auth"}
	coordinatorOnlyFlags = []string{"workers", "probe-interval", "hedge-min", "hedge-max"}
)

// checkModeFlags exits if a flag set on the command line belongs to the mode
// not chosen.
func checkModeFlags(coordinator bool) {
	wrong, mode := coordinatorOnlyFlags, "worker"
	if coordinator {
		wrong, mode = workerOnlyFlags, "-coordinator"
	}
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(wrong, f.Name) {
			fatalf("-%s does not apply in %s mode", f.Name, mode)
		}
	})
}

// splitURLs parses a comma-separated base-URL list (-workers, -peers),
// trimming whitespace and trailing slashes.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	return urls
}

// newLogger builds the process logger on stderr. JSON is the default so the
// access log is machine-parseable (the CI serve-smoke job asserts every
// stderr line parses); text is for humans at a terminal.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("invalid -log-format %q (want json or text)", format)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "miraged: "+format+"\n", args...)
	os.Exit(1)
}
