package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// workloadNames in the order `-workload all` runs them.
var workloadNames = []string{"sweep-cold", "run-cold", "serve-warm", "fleet-warm"}

// latencyLimit is the latency within which a completion counts towards a
// workload's goodput.
var latencyLimit = map[string]time.Duration{
	"sweep-cold": time.Minute,
	"run-cold":   2 * time.Second,
	"serve-warm": 5 * time.Millisecond,
	"fleet-warm": 10 * time.Millisecond,
}

// maxLateness is the open-loop generator lateness (p99) past which a run's
// open-loop numbers are not trusted.
const maxLateness = 5 * time.Millisecond

// peerSecret is the fleet's shared peering secret (miraged -peer-auth).
const peerSecret = "miragebench"

// workers is how many goroutines and connections the generator uses: one
// per CPU the Go runtime schedules on.
func workers() int { return runtime.GOMAXPROCS(0) }

// httpServer is one net/http listener serving a handler in this process.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan error
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serveOn(ln net.Listener, url string, h http.Handler) *httpServer {
	s := &httpServer{hs: &http.Server{Handler: h}, url: url, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s
}

func (s *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return err
}

// nodeConfig is how a node departs from cmd/miraged's defaults.
type nodeConfig struct {
	dir      string // access log, and the store unless storeDir names one
	storeDir string
	noStore  bool
	bare     bool // no access log and no trace ring (the obs rung's baseline)
	cacheMax int  // CacheMaxEntries; 0 keeps miraged's default
	scales   map[string]experiments.Scale
	peers    []string  // fleet workers: the peering allowlist
	rec      *recorder // traced pass: span the handler and the backend
}

// node is one miraged worker built in-process exactly as cmd/miraged builds
// it: telemetry.New(), a JSON access log, a store.Open store, default
// admission (MaxInFlight 2, MaxQueue 8), served through net/http.
type node struct {
	tel *telemetry.Telemetry
	srv *server.Server
	st  *store.Store
	log *os.File
	web *httpServer
}

// newNode builds a node listening on ln, or on a fresh port when ln is nil.
func newNode(cfg nodeConfig, ln net.Listener, url string) (n *node, err error) {
	if ln == nil {
		if ln, url, err = listen(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if err != nil {
			ln.Close()
			n.closeFiles()
		}
	}()
	n = &node{tel: telemetry.New()}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return n, err
	}
	scales := server.DefaultScales()
	for name, sc := range cfg.scales {
		scales[name] = sc
	}
	scfg := server.Config{
		MaxInFlight:     2,
		MaxQueue:        8,
		Telemetry:       n.tel,
		Scales:          scales,
		CacheMaxEntries: cfg.cacheMax,
	}
	if !cfg.noStore {
		dir := cfg.storeDir
		if dir == "" {
			dir = filepath.Join(cfg.dir, "store")
		}
		if n.st, err = store.Open(dir, store.Options{Registry: n.tel.Reg()}); err != nil {
			return n, err
		}
		scfg.Store = n.st
	}
	if cfg.bare {
		scfg.TraceEvents = -1
	} else {
		if n.log, err = os.Create(filepath.Join(cfg.dir, "access.log")); err != nil {
			return n, err
		}
		scfg.Logger = slog.New(slog.NewJSONHandler(n.log, nil))
	}
	if len(cfg.peers) > 0 {
		scfg.PeerAuth = peerSecret
		scfg.PeerFetch = fleet.NewPeerFetch(nil, cfg.peers, peerSecret)
	}
	if cfg.rec != nil {
		scfg.Backend = tracedBackend{rec: cfg.rec}
	}
	n.srv = server.New(scfg)
	var h http.Handler = n.srv
	if cfg.rec != nil {
		h = tracedHandler{next: n.srv, rec: cfg.rec, layer: "server"}
	}
	n.web = serveOn(ln, url, h)
	return n, nil
}

// close drains the node the way miraged does on SIGTERM: the simulation
// layer first, then the listener, then the store.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	err = errors.Join(err, n.web.close())
	return errors.Join(err, n.closeFiles())
}

func (n *node) closeFiles() error {
	var err error
	if n != nil && n.st != nil {
		err = n.st.Close()
	}
	if n != nil && n.log != nil {
		err = errors.Join(err, n.log.Close())
	}
	return err
}

// env is one set-up of a workload: the servers, where traffic goes, and the
// bodies set-up produced.
type env struct {
	dir      string
	nodes    []*node
	coord    *fleet.Coordinator
	coordTel *telemetry.Telemetry
	coordLog *os.File
	coordTr  *http.Transport
	front    *httpServer
	base     string   // URL traffic goes to
	prefill  [][]byte // warm: each key's body as set-up served it
	suite    time.Duration
}

func (e *env) close() error {
	var err error
	if e.coord != nil {
		e.coord.Close()
	}
	if e.front != nil {
		err = e.front.close()
	}
	for _, n := range e.nodes {
		err = errors.Join(err, n.close())
	}
	if e.coordTr != nil {
		e.coordTr.CloseIdleConnections()
	}
	if e.coordLog != nil {
		err = errors.Join(err, e.coordLog.Close())
	}
	return errors.Join(err, os.RemoveAll(e.dir))
}

// tels are every telemetry the workload's servers and coordinator feed.
func (e *env) tels() []*telemetry.Telemetry {
	var out []*telemetry.Telemetry
	for _, n := range e.nodes {
		out = append(out, n.tel)
	}
	if e.coordTel != nil {
		out = append(out, e.coordTel)
	}
	return out
}

// setup builds a fresh environment for workload w in a new directory under
// parent. With rec set, handlers and backends record spans into it.
func setup(w string, p *plan, rec *recorder, parent string) (*env, error) {
	dir, err := os.MkdirTemp(parent, w+"-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	// The program layer: miraged generates the synthetic benchmark suite
	// once per process, on its first request. The simulator keeps using
	// the suite generated before anything was timed; regenerating it here
	// charges that cost to set-up.
	start := time.Now()
	for _, b := range program.Suite() {
		program.Generate(b.Params)
	}
	e.suite = time.Since(start)
	switch w {
	case "sweep-cold", "run-cold":
		var n *node
		if n, err = newNode(nodeConfig{dir: dir, scales: p.scales, rec: rec}, nil, ""); err == nil {
			e.nodes, e.base = []*node{n}, n.web.url
		}
	case "serve-warm":
		err = e.serveWarm(p, rec)
	case "fleet-warm":
		err = e.fleetWarm(p, rec)
	}
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// serveWarm simulates the key set through server A, closes it, and opens
// server B on the same store with a 16-entry memory cache: a restarted
// miraged whose working set outgrows its cache.
func (e *env) serveWarm(p *plan, rec *recorder) error {
	storeDir := filepath.Join(e.dir, "store")
	a, err := newNode(nodeConfig{dir: filepath.Join(e.dir, "a"), storeDir: storeDir}, nil, "")
	if err != nil {
		return err
	}
	e.prefill, err = prefill(a.web.url, p, []*telemetry.Telemetry{a.tel})
	if err = errors.Join(err, a.close()); err != nil {
		return err
	}
	b, err := newNode(nodeConfig{dir: filepath.Join(e.dir, "b"), storeDir: storeDir, cacheMax: 16, rec: rec}, nil, "")
	if err != nil {
		return err
	}
	e.nodes, e.base = []*node{b}, b.web.url
	return nil
}

// fleetWarm builds a coordinator over two workers, each with its own store,
// configured as miraged -coordinator and miraged -peers, and simulates the
// key set through the coordinator.
func (e *env) fleetWarm(p *plan, rec *recorder) error {
	const n = 2
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, url, err := listen()
		if err != nil {
			closeListeners(lns[:i])
			return err
		}
		lns[i], urls[i] = ln, url
	}
	for i := range lns {
		w, err := newNode(nodeConfig{dir: filepath.Join(e.dir, fmt.Sprintf("w%d", i)), peers: urls, rec: rec}, lns[i], urls[i])
		if err != nil {
			closeListeners(lns[i+1:])
			return err
		}
		e.nodes = append(e.nodes, w)
	}
	var err error
	if e.coordLog, err = os.Create(filepath.Join(e.dir, "coordinator.log")); err != nil {
		return err
	}
	e.coordTel = telemetry.New()
	// The same transport settings the coordinator's default client uses,
	// held here so teardown can close its idle connections.
	e.coordTr = &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
	e.coord, err = fleet.New(fleet.Config{
		Workers:   urls,
		Client:    &http.Client{Transport: e.coordTr},
		Telemetry: e.coordTel,
		Logger:    slog.New(slog.NewJSONHandler(e.coordLog, nil)),
	})
	if err != nil {
		return err
	}
	e.coord.ProbeOnce(context.Background())
	e.coord.Start()
	var h http.Handler = e.coord
	if rec != nil {
		h = tracedHandler{next: e.coord, rec: rec, layer: "fleet"}
	}
	ln, url, err := listen()
	if err != nil {
		return err
	}
	e.front, e.base = serveOn(ln, url, h), url
	e.prefill, err = prefill(url, p, e.tels())
	return err
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// prefill simulates every key of p once through base and returns the
// bodies. The store write-through runs after each reply is sent, so it then
// waits until every body is on disk.
func prefill(base string, p *plan, tels []*telemetry.Telemetry) ([][]byte, error) {
	bodies := make([][]byte, len(p.sends))
	t := &target{base: base, check: func(idx, status int, _ http.Header, body []byte) bool {
		bodies[idx] = bytes.Clone(body)
		return status == http.StatusOK
	}}
	lanes := newLanes(workers())
	defer closeLanes(lanes)
	ss, _ := closedLoop(t, p.sends, indexes(len(p.sends)), lanes)
	if n := failures(ss); n > 0 {
		return nil, fmt.Errorf("prefill: %d of %d requests failed", n, len(ss))
	}
	deadline := time.Now().Add(time.Minute)
	for snapshotCounters(tels)["server.store.writes"] < int64(len(p.sends)) {
		if time.Now().After(deadline) {
			return nil, errors.New("prefill: store write-through did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	return bodies, nil
}

// counters sums every telemetry counter by name across registries.
type counters map[string]int64

// snapshotCounters reads counters only. Registry.Snapshot would also
// evaluate the memory hierarchy's func gauges, which read simulator state
// without synchronization while a simulation may still be running.
func snapshotCounters(tels []*telemetry.Telemetry) counters {
	c := counters{}
	for _, t := range tels {
		reg := t.Reg()
		for _, name := range reg.CounterNames() {
			c[name] += reg.Counter(name).Value()
		}
	}
	return c
}

func (c counters) minus(before counters) counters {
	d := counters{}
	for name, v := range c {
		d[name] = v - before[name]
	}
	return d
}

// sum adds every counter whose name match accepts.
func (c counters) sum(match func(string) bool) int64 {
	var n int64
	for name, v := range c {
		if match(name) {
			n += v
		}
	}
	return n
}

// state is what a phase reads off the environment before and after.
type state struct {
	counters counters
	admit    map[int64]int64 // server.admit.queue_wait_us buckets by upper bound
	heap     uint64          // live heap after a full GC
	events   int             // retained telemetry trace-sink events
}

func readState(e *env) state {
	s := state{counters: snapshotCounters(e.tels()), admit: map[int64]int64{}}
	for _, n := range e.nodes {
		for _, b := range n.tel.Reg().Histogram("server.admit.queue_wait_us").Snapshot().Buckets {
			s.admit[b.Le] += b.Count
		}
	}
	for _, t := range e.tels() {
		s.events += t.Sink().Len()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heap = ms.HeapAlloc
	return s
}

// phase is what one measured pass over a plan produced.
type phase struct {
	closed   []sample
	wall     time.Duration // closed loop: its segments' walls, each start to last completion
	refWall  time.Duration // the same at the reference host speed
	open     []sample
	bodies   [][]byte // sweep-cold, run-cold: each reply, in schedule order
	delta    counters // telemetry counters the phase moved
	admit    telemetry.HistogramSnapshot
	heap     float64 // MiB of live heap the phase left behind
	events   int     // trace-sink events the phase left behind
	problems []string
}

func (ph *phase) samples() []sample { return append(append([]sample(nil), ph.open...), ph.closed...) }

// measure runs workload w's measured phase against e. Each loop runs in
// segments timed against the host's speed by hs.
func measure(w string, e *env, p *plan, rec *recorder, hs *hostSpeed) *phase {
	ph := &phase{}
	before := readState(e)
	lanes := newLanes(workers())
	defer closeLanes(lanes)
	if rec != nil {
		rec.reset()
	}
	t := &target{base: e.base, rec: rec}
	switch w {
	case "sweep-cold", "run-cold":
		ph.bodies = make([][]byte, len(p.sends))
		t.check = func(idx, status int, h http.Header, body []byte) bool {
			ph.bodies[idx] = bytes.Clone(body)
			var reply struct{ Key string }
			// Every request is distinct, so every reply must be a fresh
			// simulation; run replies also echo their canonical key.
			return status == http.StatusOK && h.Get("X-Cache") == "miss" &&
				(w == "sweep-cold" || json.Unmarshal(body, &reply) == nil && reply.Key == p.sends[idx].key)
		}
		if w == "sweep-cold" {
			// A user waits for one sweep at a time.
			lanes = lanes[:1]
		}
		ph.runClosed(hs, t, p.sends, indexes(len(p.sends)), lanes)
	default:
		// X-Cache is not checked: a request that joins a flight whose
		// leader is reading the key from disk is labelled "miss" although
		// nothing is simulated. checkPhase asserts no job ran instead.
		t.check = func(idx, status int, h http.Header, body []byte) bool {
			return status == http.StatusOK && bytes.Equal(body, e.prefill[idx]) &&
				(w != "fleet-warm" || h.Get("X-Mirage-Shard") != "")
		}
		ph.runOpen(hs, t, p.sends, p.open, p.arrivals, lanes)
		ph.runClosed(hs, t, p.sends, p.closed, lanes)
	}
	after := readState(e)
	ph.delta = after.counters.minus(before.counters)
	for le, n := range after.admit {
		if d := n - before.admit[le]; d > 0 {
			ph.admit.Buckets = append(ph.admit.Buckets, telemetry.HistogramBucket{Le: le, Count: d})
			ph.admit.Count += d
		}
	}
	sortBuckets(ph.admit.Buckets)
	ph.heap = (float64(after.heap) - float64(before.heap)) / (1 << 20)
	ph.events = after.events - before.events
	ph.problems = checkPhase(w, p, e, ph)
	return ph
}

// segments is how many parts each measured loop runs in, each between two
// host probes, so the host-speed factor follows drift within a run. On
// sweep-cold, at five sweeps a run, a part is one sweep.
const segments = 5

// runClosed runs a closed loop over order in segments and adds its samples
// and wall to the phase's. Each segment drains before the next starts.
func (ph *phase) runClosed(hs *hostSpeed, t *target, reqs []request, order []int, lanes []*lane) {
	parts := split(len(order))
	ss := make([][]sample, len(parts))
	walls := make([]time.Duration, len(parts))
	fs := hs.segments(len(parts), func(i int) {
		ss[i], walls[i] = closedLoop(t, reqs, order[parts[i][0]:parts[i][1]], lanes)
	})
	for i, f := range fs {
		ph.closed = append(ph.closed, atHost(ss[i], f)...)
		ph.wall += walls[i]
		ph.refWall += scaled(walls[i], f)
	}
}

// runOpen runs an open loop in segments of equal request counts, each
// keeping its requests' due times relative to the segment's first.
func (ph *phase) runOpen(hs *hostSpeed, t *target, reqs []request, order []int, arrivals []time.Duration, lanes []*lane) {
	parts := split(len(order))
	ss := make([][]sample, len(parts))
	fs := hs.segments(len(parts), func(i int) {
		lo, hi := parts[i][0], parts[i][1]
		due := make([]time.Duration, hi-lo)
		for k := range due {
			due[k] = arrivals[lo+k] - arrivals[lo]
		}
		ss[i] = openLoop(t, reqs, order[lo:hi], due, lanes)
	})
	for i, f := range fs {
		ph.open = append(ph.open, atHost(ss[i], f)...)
	}
}

// split cuts n entries into at most segments nearly equal [lo, hi) parts.
func split(n int) [][2]int {
	k := min(n, segments)
	parts := make([][2]int, k)
	for i := range parts {
		parts[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return parts
}

// digest is the SHA-256 of the bodies, concatenated in order.
func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestKey names a phase's output set in the committed digests: what the
// bodies depend on, and nothing else.
func digestKey(w string, p *plan) string {
	switch w {
	case "sweep-cold":
		return "sweep/scale=" + p.size.scale.Name
	case "run-cold":
		return fmt.Sprintf("run/seed=%d/n=%d/insts=%d", p.seed, len(p.sends), p.size.runInsts)
	}
	// serve-warm and fleet-warm share the key: fleet replies must be the
	// single-node bytes.
	return fmt.Sprintf("warm/seed=%d/keys=%d/insts=%d/interval=%d", p.seed, len(p.sends), p.size.warmInsts, p.size.warmCycles)
}

// phaseDigest is the digest of the phase's output set: the sweep body, the
// run bodies in schedule order, or the warm key set's bodies in key order.
func phaseDigest(w string, e *env, ph *phase) string {
	switch w {
	case "sweep-cold":
		return digest(ph.bodies[:1])
	case "run-cold":
		return digest(ph.bodies)
	}
	return digest(e.prefill)
}

// checkPhase checks what single replies cannot show: that repeated outputs
// agree, that they match the committed digest where one exists, and that
// warm serving neither simulated nor wrote to the store.
func checkPhase(w string, p *plan, e *env, ph *phase) []string {
	var problems []string
	if w == "sweep-cold" {
		for i, b := range ph.bodies {
			if !bytes.Equal(b, ph.bodies[0]) {
				problems = append(problems, fmt.Sprintf("sweep %d differs from sweep 0", i))
			}
		}
	}
	key := digestKey(w, p)
	if want, ok := committedDigests[key]; ok {
		if got := phaseDigest(w, e, ph); got != want {
			problems = append(problems, fmt.Sprintf("digest %s = %s, want %s", key, got, want))
		}
	}
	if w == "serve-warm" || w == "fleet-warm" {
		if n := ph.delta["server.jobs.executed"]; n != 0 {
			problems = append(problems, fmt.Sprintf("warm serving simulated %d jobs, want 0", n))
		}
		if n := ph.delta["server.store.writes"]; n != 0 {
			problems = append(problems, fmt.Sprintf("warm serving wrote %d store records, want 0", n))
		}
	}
	return problems
}

// runReply is the part of a /v1/run reply recompute checks.
type runReply struct {
	Key           string  `json:"key"`
	Topology      string  `json:"topology"`
	STP           float64 `json:"stp"`
	EnergyPJ      float64 `json:"energy_pj"`
	AreaMM2       float64 `json:"area_mm2"`
	OoOActiveFrac float64 `json:"ooo_active_frac"`
	Apps          []struct {
		Name       string  `json:"name"`
		IPC        float64 `json:"ipc"`
		Migrations int64   `json:"migrations"`
	} `json:"apps"`
}

// recompute checks one /v1/run reply against the same simulation run
// directly through internal/core, outside the server.
func recompute(r *server.RunRequest, key string, body []byte) error {
	var got runReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("recompute %s: %w", key, err)
	}
	mr, err := core.RunMixWithBaseline(context.Background(), coreConfig(r))
	if err != nil {
		return fmt.Errorf("recompute %s: %w", key, err)
	}
	ok := got.Key == key && got.Topology == mr.Config.Topology.String() &&
		got.STP == mr.STP && got.EnergyPJ == mr.EnergyPJ && got.AreaMM2 == mr.AreaMM2 &&
		got.OoOActiveFrac == mr.OoOActiveFrac && len(got.Apps) == len(mr.Cluster.Apps)
	for i := 0; ok && i < len(got.Apps); i++ {
		a := mr.Cluster.Apps[i]
		ok = got.Apps[i].Name == a.Name && got.Apps[i].IPC == a.IPC && got.Apps[i].Migrations == int64(a.Migrations)
	}
	if !ok {
		return fmt.Errorf("recompute %s: served reply differs from a direct core.RunMixWithBaseline", key)
	}
	return nil
}

// coreConfig applies /v1/run's documented defaults to r.
func coreConfig(r *server.RunRequest) core.Config {
	topo := map[string]core.Topology{
		"": core.TopologyMirage, "mirage": core.TopologyMirage,
		"traditional": core.TopologyTraditional,
		"homo-ino":    core.TopologyHomoInO, "homo-ooo": core.TopologyHomoOoO,
	}[r.Topology]
	cfg := core.Config{
		Topology:        topo,
		Benchmarks:      r.Mix,
		NumOoO:          r.NumOoO,
		TargetInsts:     r.TargetInsts,
		IntervalCycles:  r.IntervalCycles,
		SCCapacityBytes: r.SCCapacityBytes,
		Seed:            r.Seed,
	}
	if cfg.Seed == "" {
		cfg.Seed = "miraged"
	}
	if topo == core.TopologyMirage || topo == core.TopologyTraditional {
		cfg.Policy = core.Policy(r.Policy)
		if cfg.Policy == "" {
			cfg.Policy = core.PolicySCMPKI
		}
	}
	if topo == core.TopologyTraditional && cfg.NumOoO == 0 {
		cfg.NumOoO = 1
	}
	return cfg
}
