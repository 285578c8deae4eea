// Canonical job keys. The fleet coordinator (internal/fleet) shards
// requests across workers by the same canonical keys the workers cache and
// persist under; both derive them through ParseJob, and the helpers here
// are the key formats plus thin exports of that same parse for callers
// that hold a decoded request rather than an HTTP one.

package server

import (
	"fmt"

	"repro/internal/experiments"
)

// DefaultScales returns the scale registry a zero-config Server installs:
// experiments.Scales. Mutating the returned map affects only the copy.
func DefaultScales() map[string]experiments.Scale { return experiments.Scales() }

// resolveScale is the pure scale lookup behind ParseJob: apply the default
// name, reject unknown scales. scales nil means DefaultScales. It does NOT
// stamp server-instance state (parallelism, telemetry): neither is part of
// any job key.
func resolveScale(name string, scales map[string]experiments.Scale) (experiments.Scale, error) {
	if name == "" {
		name = "quick"
	}
	if scales == nil {
		scales = DefaultScales()
	}
	sc, ok := scales[name]
	if !ok {
		return experiments.Scale{}, badRequest("unknown scale %q", name)
	}
	return sc, nil
}

// sweepKey formats the canonical /v1/sweep job key for a resolved scale.
func sweepKey(sc experiments.Scale) string {
	return fmt.Sprintf("sweep|scale=%s|insts=%d|interval=%d|mixes=%d|n=%v",
		sc.Name, sc.TargetInsts, sc.IntervalCycles, sc.MixesPerPoint, sc.NValues)
}

// figureKey formats the canonical /v1/figures/{id} job key for a resolved
// experiment slug and scale.
func figureKey(slug string, sc experiments.Scale) string {
	return fmt.Sprintf("figure|%s|scale=%s|insts=%d|interval=%d|mixes=%d|n=%v",
		slug, sc.Name, sc.TargetInsts, sc.IntervalCycles, sc.MixesPerPoint, sc.NValues)
}

// CanonicalRunKey validates req as ParseJob does and returns its key — the
// exact key a worker serving the request would cache the response under.
// A non-nil error is the worker's validation failure for req.
func CanonicalRunKey(req *RunRequest) (string, error) { return jobKey(parseRun(req)) }

// CanonicalSweepKey validates req against scales (nil means DefaultScales)
// as ParseJob does and returns its key.
func CanonicalSweepKey(req *SweepRequest, scales map[string]experiments.Scale) (string, error) {
	return jobKey(parseSweep(req, scales))
}

func jobKey(j *Job, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return j.Key, nil
}
