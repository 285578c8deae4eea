package runner

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// ErrTransient marks a computation failure as load-dependent rather than
// input-dependent. A flight whose error wraps ErrTransient is evicted on
// completion instead of cached, so later callers retry: a sweep rejected by
// the server's admission control (saturation, draining) must not poison the
// cache for the identical request arriving after the load spike.
var ErrTransient = errors.New("transient failure")

// Backing is an optional second storage tier behind a Cache: a miss
// consults Load before computing (a warm disk store surviving restarts),
// and every successfully settled flight is offered to Store. Both methods
// must be safe for concurrent use; Load runs on the first caller's
// goroutine and Store on the flight goroutine, so neither blocks other
// keys. The production implementation adapts internal/store.
type Backing[K comparable, V any] interface {
	Load(key K) (V, bool)
	Store(key K, v V)
}

// Cache is a concurrency-safe keyed memoization with singleflight semantics:
// the first caller for a key starts a "flight" running fn; callers arriving
// while the flight is in progress block and share its result instead of
// recomputing it. It replaces the experiment layer's unsynchronized
// package-global maps, which were latent data races once jobs run in
// parallel, and is the deduplication layer behind the miraged server.
//
// Flights are context-aware (DoContext): waiters can abandon a flight when
// their request context ends, and a flight whose every waiter has left is
// cancelled and evicted so it does not burn simulation time for nobody.
// Completed flights are cached — value or error alike, because
// deterministic workloads fail deterministically — except when the error is
// the flight's own cancellation or wraps ErrTransient.
//
// Settled entries are bounded: MaxEntries and MaxBytes cap the cache and
// evict least-recently-used entries (a hit refreshes recency), so a
// long-lived server under a zipfian tail of one-off keys cannot grow
// without limit. In-progress flights are never evicted — eviction reclaims
// memory, not work in flight.
//
// The zero value is ready to use (unbounded, no backing tier). The
// configuration fields must be set before the first call and not changed
// afterwards.
type Cache[K comparable, V any] struct {
	// AbandonGrace bounds how long the last abandoning waiter lingers for
	// the flight to settle before walking away. A small grace lets a
	// deadline-exceeded request still harvest the flight's partial-result
	// error (e.g. *Canceled with completed/total counts) instead of
	// returning a bare context error. Zero means leave immediately.
	AbandonGrace time.Duration

	// MaxEntries bounds the number of settled entries (0 = unbounded).
	MaxEntries int
	// MaxBytes bounds the summed Size of settled entries (0 = unbounded).
	// Entries that settled with an error weigh zero.
	MaxBytes int64
	// Size measures a value for MaxBytes accounting; nil weighs every
	// value as zero (MaxEntries still applies).
	Size func(V) int64
	// Backing is the optional second tier consulted on a miss before the
	// flight runs (a hit settles instantly with OutcomeDisk) and offered
	// every successful result. nil disables the tier.
	Backing Backing[K, V]

	mu    sync.Mutex
	m     map[K]*flight[K, V]
	lru   *list.List // settled *flight entries, most recent first
	bytes int64
}

// Outcome classifies how a DoContext call obtained its result — the cache
// outcome the server's access log and singleflight counters are built on.
type Outcome uint8

const (
	// OutcomeLeader: this caller started the flight and ran fn (a cache
	// miss — it paid for the computation).
	OutcomeLeader Outcome = iota
	// OutcomeWaiter: this caller joined a flight started by an earlier,
	// still-in-progress caller and shared its result.
	OutcomeWaiter
	// OutcomeHit: this caller was served from an already-settled entry
	// without blocking.
	OutcomeHit
	// OutcomeDisk: this caller's miss was answered by the Backing tier —
	// no computation ran, the bytes came off disk (a warm start).
	OutcomeDisk
)

// Shared reports whether the caller reused work started by another caller
// or recovered from the backing tier (everything but the flight leader).
func (o Outcome) Shared() bool { return o != OutcomeLeader }

// String implements fmt.Stringer ("leader", "waiter", "hit", "disk").
func (o Outcome) String() string {
	switch o {
	case OutcomeLeader:
		return "leader"
	case OutcomeWaiter:
		return "waiter"
	case OutcomeHit:
		return "hit"
	case OutcomeDisk:
		return "disk"
	}
	return "outcome?"
}

// flight is one in-progress or settled computation.
type flight[K comparable, V any] struct {
	key     K
	done    chan struct{} // closed when v/err are settled
	v       V
	err     error
	settled bool // guarded by Cache.mu (for abandon/settle races)
	disk    bool // settled from the Backing tier; set with settled

	waiters int                // guarded by Cache.mu
	cancel  context.CancelFunc // cancels the flight's own context

	// elem is the entry's place in Cache.lru (nil until admitted or after
	// eviction) and size its MaxBytes weight; both guarded by Cache.mu.
	elem *list.Element
	size int64
}

// result delivers a settled flight to one of its callers. Every caller of a
// flight the Backing tier settled is relabelled OutcomeDisk: nothing was
// computed for any of them, the bytes came off disk.
func (f *flight[K, V]) result(out Outcome) (V, Outcome, error) {
	if f.disk {
		out = OutcomeDisk
	}
	return f.v, out, f.err
}

// Do returns the cached result for key, computing it with fn on first use.
// Concurrent calls for the same key run fn exactly once; errors are cached
// like values (deterministic workloads fail deterministically, so retrying
// would recompute the same failure). Do never abandons the flight — it
// blocks until fn settles.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	v, _, err := c.DoContext(context.Background(), key, func(context.Context) (V, error) { return fn() })
	return v, err
}

// DoContext is the context-aware Do. The first caller for key starts fn on
// a new goroutine under a flight context that inherits ctx's values (e.g.
// the WithTelemetry registry) but NOT its cancellation: later callers share
// the flight, so one request's deadline must not kill the computation for
// everyone. fn must honour fctx — it is cancelled only when every waiter
// has abandoned the flight.
//
// out reports how the result was obtained: OutcomeLeader for the caller
// that ran fn (a miss), OutcomeWaiter for callers that joined its
// in-progress flight, OutcomeHit for callers served from a settled entry,
// and OutcomeDisk for the first caller and every joiner of a flight the
// Backing tier answered. The server's singleflight hit counter and access-log cache field are
// built on it (out.Shared() is the old boolean).
//
// When ctx ends before the flight settles, DoContext returns ctx's error.
// If this caller was the flight's last waiter the flight is cancelled; the
// caller then waits up to AbandonGrace for fn to return so the flight's
// partial-result error (wrapped alongside the context error) survives to
// the caller. Flights that settle with an error caused by their own
// cancellation, or wrapping ErrTransient, are evicted rather than cached.
func (c *Cache[K, V]) DoContext(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, out Outcome, err error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*flight[K, V])
		c.lru = list.New()
	}
	f, ok := c.m[key]
	if ok {
		if f.settled {
			c.touchLocked(f)
			c.mu.Unlock()
			return f.v, OutcomeHit, f.err
		}
		f.waiters++
		c.mu.Unlock()
		return c.wait(ctx, key, f, OutcomeWaiter)
	}

	// Leader: start the flight. The flight context drops ctx's cancellation
	// (context.WithoutCancel) so a shared computation outlives any single
	// request, but keeps its values so telemetry attribution flows through.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f = &flight[K, V]{key: key, done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.m[key] = f
	c.mu.Unlock()

	// Consult the backing tier before paying for the computation. The
	// flight is already in the map, so concurrent callers for the key park
	// on it instead of racing their own disk reads; a backing hit settles
	// the flight with the stored value (marked disk, so those parked
	// callers report OutcomeDisk too) and nobody runs fn.
	if c.Backing != nil {
		if bv, ok := c.Backing.Load(key); ok {
			c.mu.Lock()
			f.v = bv
			f.settled, f.disk = true, true
			f.waiters--
			if c.m[key] == f {
				c.insertSettledLocked(f)
			}
			c.mu.Unlock()
			cancel()
			close(f.done)
			return bv, OutcomeDisk, nil
		}
	}

	go func() {
		v, err := fn(fctx)
		c.mu.Lock()
		f.v, f.err = v, err
		f.settled = true
		// Evict rather than cache when the failure is not a property of the
		// inputs: the flight was cancelled out from under fn, or fn flagged
		// the error as transient (admission-control rejections).
		if err != nil && (fctx.Err() != nil || errors.Is(err, ErrTransient)) {
			if c.m[key] == f {
				delete(c.m, key)
			}
		} else if c.m[key] == f {
			c.insertSettledLocked(f)
		}
		// The write-through mirrors the memory tier's evict-on-cancel
		// semantics: a flight whose context was cancelled (every waiter
		// abandoned it) must not reach the disk tier even when fn ignored
		// the cancellation and returned a nil error. Capture the verdict
		// before cancel() below makes fctx.Err() non-nil for every flight.
		persist := err == nil && fctx.Err() == nil
		c.mu.Unlock()
		cancel() // release the context's timer/goroutine resources
		close(f.done)
		if persist && c.Backing != nil {
			// Off the waiters' wakeup path: done is already closed.
			c.Backing.Store(key, v)
		}
	}()
	return c.wait(ctx, key, f, OutcomeLeader)
}

// touchLocked refreshes a settled entry's recency on a hit.
func (c *Cache[K, V]) touchLocked(f *flight[K, V]) {
	if f.elem != nil {
		c.lru.MoveToFront(f.elem)
	}
}

// insertSettledLocked admits a freshly settled flight to the bounded cache
// and evicts past the caps, oldest first. Error entries weigh zero bytes
// but still count against MaxEntries.
func (c *Cache[K, V]) insertSettledLocked(f *flight[K, V]) {
	if f.err == nil && c.Size != nil {
		f.size = c.Size(f.v)
	}
	f.elem = c.lru.PushFront(f)
	c.bytes += f.size
	for c.lru.Len() > 0 &&
		((c.MaxEntries > 0 && c.lru.Len() > c.MaxEntries) ||
			(c.MaxBytes > 0 && c.bytes > c.MaxBytes)) {
		evict := c.lru.Remove(c.lru.Back()).(*flight[K, V])
		evict.elem = nil
		c.bytes -= evict.size
		if c.m[evict.key] == evict {
			delete(c.m, evict.key)
		}
	}
}

// wait blocks until the flight settles or ctx ends, maintaining the waiter
// count and triggering last-waiter-out cancellation.
func (c *Cache[K, V]) wait(ctx context.Context, key K, f *flight[K, V], out Outcome) (V, Outcome, error) {
	select {
	case <-f.done:
		c.mu.Lock()
		f.waiters--
		c.mu.Unlock()
		return f.result(out)
	case <-ctx.Done():
	}

	// Abandon: detach from the flight. If we are the last waiter, the
	// computation has nobody left to deliver to — cancel it and remove the
	// flight from the map (under the same lock as the waiter decrement, so
	// a late joiner either sees the flight before removal and bumps waiters
	// first, or misses it entirely and starts fresh).
	c.mu.Lock()
	f.waiters--
	if f.settled {
		// Settled in the race between ctx.Done and acquiring the lock:
		// the result is ready, deliver it.
		c.mu.Unlock()
		return f.result(out)
	}
	last := f.waiters == 0
	if last && c.m[key] == f {
		delete(c.m, key)
	}
	c.mu.Unlock()

	if last {
		f.cancel()
		if c.AbandonGrace > 0 {
			// Give fn a moment to observe the cancellation and return, so
			// its partial-result error reaches this caller.
			t := time.NewTimer(c.AbandonGrace)
			defer t.Stop()
			select {
			case <-f.done:
				if f.err == nil {
					return f.v, out, nil
				}
				// Join unless fn returned the literal context error — a
				// richer error (e.g. *Canceled) must survive even though it
				// wraps the same sentinel ctx.Err() reports.
				if f.err != ctx.Err() {
					var zero V
					return zero, out, errors.Join(ctx.Err(), f.err)
				}
			case <-t.C:
			}
		}
	}
	var zero V
	return zero, out, ctx.Err()
}

// Peek returns the settled success value for key without starting, joining
// or waiting on any flight: in-progress flights and error entries report a
// miss, and the backing tier is never consulted. A hit refreshes the
// entry's LRU recency. It is the lookup behind the fleet peering endpoint,
// which must answer "do you already have the bytes" without doing work.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.m[key]
	if !ok || !f.settled || f.err != nil {
		var zero V
		return zero, false
	}
	c.touchLocked(f)
	return f.v, true
}

// Len returns the number of cached keys (settled entries plus in-flight
// computations that still have waiters).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Bytes returns the summed Size of settled entries (0 without a Size func).
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Reset drops every cached entry. In-flight computations complete against
// the old entries; callers after Reset recompute fresh. Used by the
// determinism tests and by long-lived processes that want to bound memory.
// The backing tier is untouched — Reset empties memory, not disk.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.m, c.lru = nil, nil
	c.bytes = 0
	c.mu.Unlock()
}
