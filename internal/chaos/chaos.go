// Package chaos is a deterministic fault injector for the miraged service
// stack (DESIGN.md §11): it wraps a server.Backend with seeded latency
// spikes, transient errors, context-deadline blowouts and partial-sweep
// failures, so the e2e suite can prove the API contract — status mapping,
// Retry-After, cache hygiene, byte-identical retries, graceful drain —
// holds under the failures production infrastructure actually produces.
//
// Determinism is the point: every fault decision derives from
// (seed, operation key, attempt number) through internal/xrand, never from
// wall-clock or scheduling. A failing chaos run replays exactly from its
// seed, and two backends wrapped with the same seed fail identically.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/xrand"
)

// Kind classifies one injected fault.
type Kind uint8

const (
	// KindNone means the operation proceeds untouched.
	KindNone Kind = iota
	// KindLatency delays the operation, then lets it succeed. It models a
	// load spike; it consumes no fault budget because it is not a failure.
	KindLatency
	// KindTransient fails the operation with an error wrapping
	// runner.ErrTransient — the load-dependent failure class the response
	// cache must evict rather than memoize.
	KindTransient
	// KindStall blocks the operation until its context ends and returns
	// ctx.Err(), modeling a hung dependency. The server maps it to 504
	// (deadline) or 499 (client gone).
	KindStall
	// KindPartial fails a sweep midway with a *runner.Canceled carrying
	// completed/total progress, modeling a batch that died partway.
	KindPartial
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindLatency:
		return "latency"
	case KindTransient:
		return "transient"
	case KindStall:
		return "stall"
	case KindPartial:
		return "partial"
	}
	return "kind?"
}

// Config parameterizes an Injector. Probabilities are evaluated in the
// order latency, transient, stall, partial; at most one fault fires per
// attempt.
type Config struct {
	// Seed names the deterministic fault stream.
	Seed string
	// PLatency, PTransient, PStall, PPartial are per-attempt injection
	// probabilities in [0, 1].
	PLatency   float64
	PTransient float64
	PStall     float64
	PPartial   float64
	// Latency bounds the injected delay for KindLatency; the actual delay
	// is uniform in (0, Latency]. Default 5ms.
	Latency time.Duration
	// MaxFaultsPerKey bounds how many *failing* faults (transient, stall,
	// partial) one operation key absorbs; past it the key succeeds
	// unconditionally. This guarantees recovery: a retried request
	// eventually gets a clean flight, which the contract tests rely on.
	// 0 means unlimited. Latency injections do not consume the budget.
	MaxFaultsPerKey int
}

// Injector decides faults deterministically. Safe for concurrent use: the
// decision for (key, attempt) is a pure function of the seed, and the
// per-key attempt and budget counters are kept in a mutex-free way via
// Plan's explicit attempt numbers — callers that need automatic attempt
// tracking use the Backend wrapper, which serializes its counter map.
type Injector struct {
	cfg Config
}

// NewInjector validates cfg and builds an Injector.
func NewInjector(cfg Config) (*Injector, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PLatency", cfg.PLatency},
		{"PTransient", cfg.PTransient},
		{"PStall", cfg.PStall},
		{"PPartial", cfg.PPartial},
	} {
		if p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("chaos: %s = %v out of [0, 1]", p.name, p.v)
		}
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 5 * time.Millisecond
	}
	return &Injector{cfg: cfg}, nil
}

// Fault is one planned injection.
type Fault struct {
	Kind Kind
	// Delay is the injected latency for KindLatency.
	Delay time.Duration
	// Frac positions a partial failure within a batch: a KindPartial
	// fault fails after ⌈Frac·total⌉ of the batch completed. In (0, 1).
	Frac float64
}

// Plan decides the fault for attempt n of the operation named key. The
// decision is pure: same (seed, key, n) → same Fault, regardless of
// goroutine interleaving, host or time. faultsSoFar is how many failing
// faults the key already absorbed; at or past MaxFaultsPerKey only
// KindLatency and KindNone can be returned.
func (in *Injector) Plan(key string, n, faultsSoFar int) Fault {
	rng := xrand.NewString(fmt.Sprintf("chaos|%s|%s|%d", in.cfg.Seed, key, n))
	budgetLeft := in.cfg.MaxFaultsPerKey == 0 || faultsSoFar < in.cfg.MaxFaultsPerKey
	// Draw every probability unconditionally so the stream is identical
	// whether or not the budget is exhausted.
	latency := rng.Bool(in.cfg.PLatency)
	transient := rng.Bool(in.cfg.PTransient)
	stall := rng.Bool(in.cfg.PStall)
	partial := rng.Bool(in.cfg.PPartial)
	delayFrac := rng.Float64()
	partialFrac := rng.Float64()

	if latency {
		d := time.Duration(delayFrac * float64(in.cfg.Latency))
		if d <= 0 {
			d = time.Microsecond
		}
		return Fault{Kind: KindLatency, Delay: d}
	}
	if !budgetLeft {
		return Fault{Kind: KindNone}
	}
	switch {
	case transient:
		return Fault{Kind: KindTransient}
	case stall:
		return Fault{Kind: KindStall}
	case partial:
		f := 0.1 + 0.8*partialFrac
		return Fault{Kind: KindPartial, Frac: f}
	}
	return Fault{Kind: KindNone}
}

// Failing reports whether k consumes the per-key fault budget.
func (k Kind) Failing() bool {
	return k == KindTransient || k == KindStall || k == KindPartial
}
