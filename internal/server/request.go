// Job parsing: the one path from a job request to a Job. Every request is
// normalized into a canonical job key — defaults applied, mix order
// preserved, timeout excluded — so equivalent requests deduplicate through
// the singleflight cache and byte-identical responses come for free. The
// worker serves, and the fleet coordinator routes, through the same
// ParseJob (DESIGN.md §14).

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/program"
)

// maxBodyBytes bounds request bodies; hostile payloads past it fail decode
// with a 4xx rather than exhausting memory.
const maxBodyBytes = 1 << 20

// Validation bounds. The simulator is CPU-bound, so the API refuses knob
// values that would turn one request into an unbounded amount of work.
const (
	maxMixSize     = 32
	maxTargetInsts = 200_000_000
	maxInterval    = 50_000_000
	maxNumOoO      = 8
	maxSCCapacity  = 1 << 20
	maxSeedLen     = 128
)

// apiError is a client-visible request failure with an HTTP status.
type apiError struct {
	status int
	msg    string
}

// Error implements error.
func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// RunRequest is the /v1/run body: one cluster simulation.
type RunRequest struct {
	// Mix names the workload (one benchmark per InO core).
	Mix []string `json:"mix"`
	// Topology is mirage|traditional|homo-ino|homo-ooo (default mirage).
	Topology string `json:"topology,omitempty"`
	// Policy is an arbitration policy name (default SC-MPKI).
	Policy string `json:"policy,omitempty"`
	// NumOoO is the OoO count for traditional topologies (default 1).
	NumOoO int `json:"num_ooo,omitempty"`
	// TargetInsts / IntervalCycles / SCCapacityBytes override the scaled
	// defaults; zero keeps defaults.
	TargetInsts     int64 `json:"target_insts,omitempty"`
	IntervalCycles  int64 `json:"interval_cycles,omitempty"`
	SCCapacityBytes int   `json:"sc_capacity_bytes,omitempty"`
	// Seed names the deterministic random stream (default "miraged").
	Seed string `json:"seed,omitempty"`
	// TimeoutMS bounds this request's wall time; it is NOT part of the job
	// key (two callers with different patience share one simulation).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepRequest is the /v1/sweep body: the Figures 7/8/9b arbitrator sweep.
type SweepRequest struct {
	// Scale names a registered scale (default "quick"; see DefaultScales).
	Scale string `json:"scale,omitempty"`
	// TimeoutMS bounds this request's wall time (not part of the job key).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobRoutes maps each job route's mux pattern to the route name ParseJob
// takes. The worker and the fleet coordinator both register exactly these
// routes, so neither can serve a job route the other does not know.
var JobRoutes = map[string]string{
	"POST /v1/run":         "run",
	"POST /v1/sweep":       "sweep",
	"GET /v1/figures/{id}": "figure",
}

// Job is one parsed job request: its canonical key, its timeout and what
// to simulate. ParseJob stamps in no server state; the worker adds its
// parallelism and telemetry before running it.
type Job struct {
	// Route is the JobRoutes name the request arrived on.
	Route string
	// Key is the canonical dedup key: every normalized field that changes
	// the result, and nothing that doesn't (timeout, parallelism).
	Key string
	// Timeout is the requested timeout_ms; zero asks for the server default.
	Timeout time.Duration

	// cfg is a run's cluster; scale and ids name a sweep's or a figure's
	// reports.
	cfg   core.Config
	scale experiments.Scale
	ids   []string
}

// ReadBody buffers a request body up to the body bound plus one byte, so
// ParseJob still sees that an oversized body is too large.
func ReadBody(r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	return io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
}

// ParseJob turns one job request into a Job: the strict decode of body
// (run and sweep) or of r's path and query (figure), validation, defaults
// and the canonical key. scales resolves scale names (nil means
// DefaultScales). The worker serves a request exactly when ParseJob
// accepts it, and the fleet coordinator shards by the Key it returns, so
// the two cannot disagree on what is a job or which job it is. A non-nil
// error is a client error carrying the worker's status and message.
func ParseJob(route string, r *http.Request, body []byte, scales map[string]experiments.Scale) (*Job, error) {
	switch route {
	case "run":
		var req RunRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		return parseRun(&req)
	case "sweep":
		var req SweepRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		return parseSweep(&req, scales)
	case "figure":
		q := r.URL.Query()
		return parseFigure(r.PathValue("id"), q.Get("timeout_ms"), q.Get("scale"), scales)
	}
	return nil, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown job route %q", route)}
}

// decodeJSON strictly decodes one JSON object from body: unknown fields,
// trailing garbage and bodies past the bound are all 400s.
func decodeJSON(body []byte, dst any) error {
	rd := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBodyBytes)
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return badRequest("invalid request body: trailing data after JSON object")
	}
	return nil
}

// validSeed constrains seeds to printable ASCII without the key separator,
// keeping canonical keys injective and log lines sane.
func validSeed(s string) bool {
	if len(s) > maxSeedLen {
		return false
	}
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '|' {
			return false
		}
	}
	return true
}

// parseRun validates a /v1/run request and derives its key and cluster.
func parseRun(req *RunRequest) (*Job, error) {
	if len(req.Mix) == 0 {
		return nil, badRequest("mix must name at least one benchmark")
	}
	if len(req.Mix) > maxMixSize {
		return nil, badRequest("mix has %d entries; the limit is %d", len(req.Mix), maxMixSize)
	}
	for _, name := range req.Mix {
		if program.ByName(name) == nil {
			return nil, badRequest("unknown benchmark %q", name)
		}
	}
	topoName := req.Topology
	if topoName == "" {
		topoName = "mirage"
	}
	topo, err := core.ParseTopology(topoName)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	policy := core.Policy(req.Policy)
	hasOoO := topo == core.TopologyMirage || topo == core.TopologyTraditional
	if hasOoO {
		if policy == "" {
			policy = core.PolicySCMPKI
		}
		if _, err := core.NewArbiter(policy); err != nil {
			return nil, badRequest("unknown policy %q", req.Policy)
		}
	} else if policy != "" {
		return nil, badRequest("policy %q does not apply to topology %q (no arbitrated OoO)", req.Policy, topo)
	}
	switch {
	case req.NumOoO < 0 || req.NumOoO > maxNumOoO:
		return nil, badRequest("num_ooo %d out of range [0, %d]", req.NumOoO, maxNumOoO)
	case req.NumOoO > 1 && topo != core.TopologyTraditional:
		return nil, badRequest("num_ooo applies to the traditional topology only")
	case req.TargetInsts < 0 || req.TargetInsts > maxTargetInsts:
		return nil, badRequest("target_insts %d out of range [0, %d]", req.TargetInsts, maxTargetInsts)
	case req.IntervalCycles < 0 || req.IntervalCycles > maxInterval:
		return nil, badRequest("interval_cycles %d out of range [0, %d]", req.IntervalCycles, maxInterval)
	case req.SCCapacityBytes < 0 || req.SCCapacityBytes > maxSCCapacity:
		return nil, badRequest("sc_capacity_bytes %d out of range [0, %d]", req.SCCapacityBytes, maxSCCapacity)
	case req.TimeoutMS < 0:
		return nil, badRequest("timeout_ms must be >= 0")
	}
	seed := req.Seed
	if seed == "" {
		seed = "miraged"
	}
	if !validSeed(seed) {
		return nil, badRequest("seed must be at most %d printable ASCII characters without '|'", maxSeedLen)
	}
	numOoO := req.NumOoO
	if topo == core.TopologyTraditional && numOoO == 0 {
		numOoO = 1
	}
	cfg := core.Config{
		Topology:        topo,
		Benchmarks:      append([]string(nil), req.Mix...),
		NumOoO:          numOoO,
		TargetInsts:     req.TargetInsts,
		IntervalCycles:  req.IntervalCycles,
		SCCapacityBytes: req.SCCapacityBytes,
		Seed:            seed,
	}
	if hasOoO {
		cfg.Policy = policy
	}
	key := fmt.Sprintf("run|topo=%s|policy=%s|ooo=%d|insts=%d|interval=%d|sc=%d|seed=%s|mix=%s",
		topo, cfg.Policy, numOoO, req.TargetInsts, req.IntervalCycles, req.SCCapacityBytes,
		seed, strings.Join(req.Mix, ","))
	return &Job{Route: "run", Key: key, Timeout: ms(req.TimeoutMS), cfg: cfg}, nil
}

// parseSweep validates a /v1/sweep request and resolves its scale.
func parseSweep(req *SweepRequest, scales map[string]experiments.Scale) (*Job, error) {
	if req.TimeoutMS < 0 {
		return nil, badRequest("timeout_ms must be >= 0")
	}
	sc, err := resolveScale(req.Scale, scales)
	if err != nil {
		return nil, err
	}
	return &Job{Route: "sweep", Key: sweepKey(sc), Timeout: ms(req.TimeoutMS), scale: sc, ids: experiments.SweepIDs}, nil
}

// parseFigure validates a /v1/figures/{id} request: the experiment id, the
// timeout_ms and scale query parameters, and that the experiment can
// report at that scale.
func parseFigure(id, timeoutMS, scale string, scales map[string]experiments.Scale) (*Job, error) {
	exp, ok := experiments.ByName(id)
	if !ok {
		return nil, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown experiment %q", id)}
	}
	var n int64
	if timeoutMS != "" {
		v, err := strconv.ParseInt(timeoutMS, 10, 64)
		if err != nil || v < 0 {
			return nil, badRequest("invalid timeout_ms %q", timeoutMS)
		}
		n = v
	}
	sc, err := resolveScale(scale, scales)
	if err != nil {
		return nil, err
	}
	if exp.Check != nil {
		if err := exp.Check(sc); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	return &Job{Route: "figure", Key: figureKey(exp.Slug, sc), Timeout: ms(n), scale: sc, ids: []string{exp.ID}}, nil
}

// ms converts a request's timeout_ms to a duration.
func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

// timeout lowers a job's requested timeout to the effective deadline,
// applying the server default and ceiling.
func (s *Server) timeout(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}
