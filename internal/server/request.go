// Request decoding, validation and canonicalization. Every request is
// normalized into a canonical job key — defaults applied, mix order
// preserved, timeout excluded — so equivalent requests deduplicate through
// the singleflight cache and byte-identical responses come for free.

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
	// Scale names a registered scale ("quick", "full").
	Scale string `json:"scale,omitempty"`
	// TimeoutMS bounds this request's wall time (not part of the job key).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// job is a validated, canonicalized unit of work.
type job struct {
	// key is the canonical dedup key: every normalized field that changes
	// the result, and nothing that doesn't (timeout, parallelism).
	key     string
	timeout time.Duration
}

// runJob is a validated /v1/run request.
type runJob struct {
	job
	cfg core.Config
}

// decodeJSON strictly decodes one JSON object from the request body:
// unknown fields, trailing garbage and oversized bodies are all 400s.
func decodeJSON(r *http.Request, dst any) *apiError {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
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

// validateRun normalizes a RunRequest into a runJob, stamping in the
// server-wide telemetry (not part of the key).
func (s *Server) validateRun(req *RunRequest) (*runJob, *apiError) {
	key, cfg, aerr := canonicalRun(req)
	if aerr != nil {
		return nil, aerr
	}
	// A run's mix and its Homo-OoO reference go one after the other:
	// admission (MaxInFlight) is the server's parallelism. Running the pair
	// concurrently raised miragebench's run-cold maxrss 48 -> 54 MiB on a
	// 2-vCPU VM and cut its p50 by only 5% (DESIGN.md §10).
	cfg.Parallel = 1
	cfg.Telemetry = s.simTel
	return &runJob{
		job: job{key: key, timeout: s.timeout(req.TimeoutMS)},
		cfg: cfg,
	}, nil
}

// canonicalRun is the pure canonicalization behind validateRun: it
// validates req and derives the PR 4 job key plus the simulation config,
// with no server-instance state folded in. The fleet coordinator calls it
// (via CanonicalRunKey) so the exact same bytes-for-bytes key shards work
// across workers.
func canonicalRun(req *RunRequest) (string, core.Config, *apiError) {
	var none core.Config
	if len(req.Mix) == 0 {
		return "", none, badRequest("mix must name at least one benchmark")
	}
	if len(req.Mix) > maxMixSize {
		return "", none, badRequest("mix has %d entries; the limit is %d", len(req.Mix), maxMixSize)
	}
	for _, name := range req.Mix {
		if program.ByName(name) == nil {
			return "", none, badRequest("unknown benchmark %q", name)
		}
	}
	topoName := req.Topology
	if topoName == "" {
		topoName = "mirage"
	}
	topo, err := core.ParseTopology(topoName)
	if err != nil {
		return "", none, badRequest("%v", err)
	}
	policy := core.Policy(req.Policy)
	hasOoO := topo == core.TopologyMirage || topo == core.TopologyTraditional
	if hasOoO {
		if policy == "" {
			policy = core.PolicySCMPKI
		}
		if _, err := core.NewArbiter(policy); err != nil {
			return "", none, badRequest("unknown policy %q", req.Policy)
		}
	} else if policy != "" {
		return "", none, badRequest("policy %q does not apply to topology %q (no arbitrated OoO)", req.Policy, topo)
	}
	switch {
	case req.NumOoO < 0 || req.NumOoO > maxNumOoO:
		return "", none, badRequest("num_ooo %d out of range [0, %d]", req.NumOoO, maxNumOoO)
	case req.NumOoO > 1 && topo != core.TopologyTraditional:
		return "", none, badRequest("num_ooo applies to the traditional topology only")
	case req.TargetInsts < 0 || req.TargetInsts > maxTargetInsts:
		return "", none, badRequest("target_insts %d out of range [0, %d]", req.TargetInsts, maxTargetInsts)
	case req.IntervalCycles < 0 || req.IntervalCycles > maxInterval:
		return "", none, badRequest("interval_cycles %d out of range [0, %d]", req.IntervalCycles, maxInterval)
	case req.SCCapacityBytes < 0 || req.SCCapacityBytes > maxSCCapacity:
		return "", none, badRequest("sc_capacity_bytes %d out of range [0, %d]", req.SCCapacityBytes, maxSCCapacity)
	case req.TimeoutMS < 0:
		return "", none, badRequest("timeout_ms must be >= 0")
	}
	seed := req.Seed
	if seed == "" {
		seed = "miraged"
	}
	if !validSeed(seed) {
		return "", none, badRequest("seed must be at most %d printable ASCII characters without '|'", maxSeedLen)
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
	return key, cfg, nil
}

// validateSweep normalizes a SweepRequest into a job plus its resolved scale.
func (s *Server) validateSweep(req *SweepRequest) (*job, experiments.Scale, *apiError) {
	if req.TimeoutMS < 0 {
		return nil, experiments.Scale{}, badRequest("timeout_ms must be >= 0")
	}
	sc, aerr := s.scale(req.Scale)
	if aerr != nil {
		return nil, experiments.Scale{}, aerr
	}
	return &job{key: sweepKey(sc), timeout: s.timeout(req.TimeoutMS)}, sc, nil
}

// timeout lowers a request's timeout_ms to the effective deadline, applying
// the server default and ceiling.
func (s *Server) timeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}
