// Tests for the Cache capacity bounds (LRU over settled entries) and the
// Backing disk tier: the regression suite for the "singleflight cache grows
// without limit under a zipfian tail" bug and for warm starts.

package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCacheMaxEntriesLRU(t *testing.T) {
	c := &Cache[string, int]{MaxEntries: 2}
	compute := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	mustDo := func(key string, v int) {
		t.Helper()
		got, err := c.Do(key, compute(v))
		if err != nil || got != v {
			t.Fatalf("Do(%s) = %d, %v", key, got, err)
		}
	}
	mustDo("a", 1)
	mustDo("b", 2)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Touch a so b is the LRU entry, then overflow with c.
	if v, _, err := c.DoContext(context.Background(), "a", nil); err != nil || v != 1 {
		t.Fatalf("hit a = %d, %v", v, err)
	}
	mustDo("c", 3)
	if c.Len() != 2 {
		t.Fatalf("Len after eviction = %d, want 2", c.Len())
	}
	// The LRU entry b was evicted; the refreshed a survived.
	v, out, err := c.DoContext(context.Background(), "a", func(context.Context) (int, error) {
		return 0, errors.New("a was evicted: it was the most recently used entry")
	})
	if err != nil || v != 1 || out != OutcomeHit {
		t.Fatalf("a = %d, %v, %v; want cached 1", v, out, err)
	}
	ran := false
	got, err := c.Do("b", func() (int, error) { ran = true; return 20, nil })
	if err != nil || got != 20 || !ran {
		t.Fatalf("b after eviction = %d, ran=%v, err=%v (want recompute)", got, ran, err)
	}
}

func TestCacheMaxBytes(t *testing.T) {
	c := &Cache[string, []byte]{
		MaxBytes: 100,
		Size:     func(b []byte) int64 { return int64(len(b)) },
	}
	put := func(key string, n int) {
		t.Helper()
		if _, err := c.Do(key, func() ([]byte, error) { return make([]byte, n), nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 40)
	put("b", 40)
	if got := c.Bytes(); got != 80 {
		t.Fatalf("Bytes = %d, want 80", got)
	}
	put("c", 40) // 120 > 100: evicts a (oldest)
	if got := c.Bytes(); got != 80 {
		t.Fatalf("Bytes after eviction = %d, want 80", got)
	}
	ran := false
	if _, err := c.Do("a", func() ([]byte, error) { ran = true; return nil, nil }); err != nil || !ran {
		t.Fatalf("a should have been evicted (ran=%v, err=%v)", ran, err)
	}
}

// TestCacheBoundedUnderZipfianTail is the original bug as a scenario: a
// stream of mostly one-off keys must not grow the cache past its cap.
func TestCacheBoundedUnderZipfianTail(t *testing.T) {
	c := &Cache[string, int]{MaxEntries: 64}
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("one-off-%d", i)
		if i%10 == 0 {
			key = fmt.Sprintf("hot-%d", i%30)
		}
		if _, err := c.Do(key, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n > 64 {
			t.Fatalf("after %d requests the cache holds %d entries (cap 64)", i+1, n)
		}
	}
}

// TestCacheErrorEntriesCountAgainstCap: cached errors occupy entries (zero
// bytes) and are evictable like values.
func TestCacheErrorEntriesCountAgainstCap(t *testing.T) {
	c := &Cache[string, int]{MaxEntries: 1}
	wantErr := errors.New("deterministic failure")
	if _, err := c.Do("bad", func() (int, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Do("good", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	// "bad" was evicted by "good": it must recompute.
	ran := false
	if _, err := c.Do("bad", func() (int, error) { ran = true; return 0, wantErr }); !errors.Is(err, wantErr) || !ran {
		t.Fatalf("evicted error entry not recomputed (ran=%v, err=%v)", ran, err)
	}
}

// mapBacking is an in-memory Backing for tests.
type mapBacking struct {
	mu     sync.Mutex
	m      map[string][]byte
	loads  int
	stores int
}

func newMapBacking() *mapBacking { return &mapBacking{m: make(map[string][]byte)} }

func (b *mapBacking) Load(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	v, ok := b.m[key]
	return v, ok
}

func (b *mapBacking) Store(key string, v []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stores++
	b.m[key] = append([]byte(nil), v...)
}

func TestCacheBackingDiskHit(t *testing.T) {
	bk := newMapBacking()
	bk.m["warm"] = []byte("stored")
	c := &Cache[string, []byte]{Backing: bk}
	v, out, err := c.DoContext(context.Background(), "warm", func(context.Context) ([]byte, error) {
		return nil, errors.New("fn ran despite a backing hit")
	})
	if err != nil || out != OutcomeDisk || string(v) != "stored" {
		t.Fatalf("= %q, %v, %v; want stored/disk/nil", v, out, err)
	}
	// The disk hit is now a settled memory entry: the next call is a plain
	// hit and does not touch the backing again.
	loadsBefore := bk.loads
	v, out, err = c.DoContext(context.Background(), "warm", nil)
	if err != nil || out != OutcomeHit || string(v) != "stored" {
		t.Fatalf("second = %q, %v, %v; want stored/hit/nil", v, out, err)
	}
	if bk.loads != loadsBefore {
		t.Fatalf("memory hit consulted the backing (%d loads)", bk.loads-loadsBefore)
	}
}

func TestCacheBackingStoreOnSuccess(t *testing.T) {
	bk := newMapBacking()
	c := &Cache[string, []byte]{Backing: bk}
	if _, err := c.Do("k", func() ([]byte, error) { return []byte("computed"), nil }); err != nil {
		t.Fatal(err)
	}
	// Store runs on the flight goroutine after the flight settles, so Do
	// returning does not guarantee the write landed yet; poll briefly.
	var got []byte
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		bk.mu.Lock()
		got = bk.m["k"]
		bk.mu.Unlock()
		if got != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if string(got) != "computed" {
		t.Fatalf("backing holds %q, want computed result", got)
	}
}

func TestCacheBackingNotPoisonedByFailures(t *testing.T) {
	bk := newMapBacking()
	c := &Cache[string, []byte]{Backing: bk}
	wantErr := errors.New("boom")
	if _, err := c.Do("fail", func() ([]byte, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatal(err)
	}
	if _, err := c.Do("transient", func() ([]byte, error) {
		return nil, fmt.Errorf("rejected: %w", ErrTransient)
	}); !errors.Is(err, ErrTransient) {
		t.Fatal(err)
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if len(bk.m) != 0 || bk.stores != 0 {
		t.Fatalf("failures reached the backing tier: %v (stores=%d)", bk.m, bk.stores)
	}
}

// TestCacheBackingConcurrentMiss: concurrent first callers for a warm key
// share one flight — exactly one backing load, everyone gets the bytes.
func TestCacheBackingConcurrentMiss(t *testing.T) {
	bk := newMapBacking()
	bk.m["warm"] = []byte("stored")
	c := &Cache[string, []byte]{Backing: bk}
	const n = 16
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.DoContext(context.Background(), "warm", func(context.Context) ([]byte, error) {
				return nil, errors.New("fn must not run for a warm key")
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], outs[i] = v, out
		}()
	}
	wg.Wait()
	disk := 0
	for i := 0; i < n; i++ {
		if string(vals[i]) != "stored" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if outs[i] == OutcomeDisk {
			disk++
		}
	}
	if disk == 0 {
		t.Fatal("no caller observed OutcomeDisk")
	}
	if bk.loads > n {
		t.Fatalf("loads = %d for %d callers", bk.loads, n)
	}
}

// gatedBacking is a Backing whose Load blocks until its gate opens, so a
// test can park a second caller on a flight the leader is loading from disk.
type gatedBacking struct {
	*mapBacking
	entered chan struct{}
	gate    chan struct{}
}

func (b *gatedBacking) Load(key string) ([]byte, bool) {
	close(b.entered)
	<-b.gate
	return b.mapBacking.Load(key)
}

// TestCacheBackingWaiterSeesDisk is the disk-waiter relabel regression: a
// caller that joins a flight whose leader is loading the key from the
// backing tier ran nothing either, so it must report OutcomeDisk, not
// OutcomeWaiter (which the server labelled a miss and counted as a
// singleflight hit).
func TestCacheBackingWaiterSeesDisk(t *testing.T) {
	bk := &gatedBacking{mapBacking: newMapBacking(), entered: make(chan struct{}), gate: make(chan struct{})}
	bk.m["warm"] = []byte("stored")
	c := &Cache[string, []byte]{Backing: bk}
	noRun := func(context.Context) ([]byte, error) {
		return nil, errors.New("fn ran despite a backing hit")
	}
	type result struct {
		v   []byte
		out Outcome
		err error
	}
	leader := make(chan result, 1)
	go func() {
		v, out, err := c.DoContext(context.Background(), "warm", noRun)
		leader <- result{v, out, err}
	}()
	<-bk.entered
	waiter := make(chan result, 1)
	go func() {
		v, out, err := c.DoContext(context.Background(), "warm", noRun)
		waiter <- result{v, out, err}
	}()
	// Open the gate only once the second caller has joined the flight.
	for joined := false; !joined; {
		c.mu.Lock()
		joined = c.m["warm"].waiters == 2
		c.mu.Unlock()
		if !joined {
			time.Sleep(time.Millisecond)
		}
	}
	close(bk.gate)
	for name, ch := range map[string]chan result{"leader": leader, "waiter": waiter} {
		r := <-ch
		if r.err != nil || r.out != OutcomeDisk || string(r.v) != "stored" {
			t.Errorf("%s = %q, %v, %v; want stored/disk/nil", name, r.v, r.out, r.err)
		}
	}
}

// TestCacheBackingSkipsCancelledFlights is the evict-on-cancel parity
// regression: when every waiter abandons a flight, the memory tier evicts
// it even if fn ignores the cancellation and returns a nil error — and the
// disk tier must match, so Backing.Store must not run for it.
func TestCacheBackingSkipsCancelledFlights(t *testing.T) {
	bk := newMapBacking()
	c := &Cache[string, []byte]{Backing: bk, AbandonGrace: 5 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// fn blocks until its flight context is cancelled by the
		// last-waiter-out path, then "succeeds" anyway.
		c.DoContext(ctx, "k", func(fctx context.Context) ([]byte, error) {
			close(entered)
			<-fctx.Done()
			return []byte("late success"), nil
		})
	}()
	<-entered
	cancel() // the only waiter walks away; the flight is cancelled + evicted
	<-done

	// The memory tier treated the flight as cancelled: a fresh caller leads
	// a new flight rather than hitting a cached entry.
	ran := false
	v, out, err := c.DoContext(context.Background(), "k", func(context.Context) ([]byte, error) {
		ran = true
		return []byte("fresh"), nil
	})
	if err != nil || !ran || out != OutcomeLeader || string(v) != "fresh" {
		t.Fatalf("retry = %q, %v, %v (ran=%v); want a fresh leader", v, out, err, ran)
	}

	// The disk tier must have matched: no write-through of the cancelled
	// flight's value. The retry's own write lands eventually ("fresh"); give
	// the flight goroutines time so a reintroduced bug cannot hide behind
	// scheduling.
	deadline := time.Now().Add(5 * time.Second)
	for {
		bk.mu.Lock()
		got, ok := bk.m["k"]
		bk.mu.Unlock()
		if ok {
			if string(got) != "fresh" {
				t.Fatalf("backing holds %q — the cancelled flight wrote through", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retry's write-through never landed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let any buggy late Store surface
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if bk.stores != 1 {
		t.Fatalf("backing saw %d stores, want 1 (retry only)", bk.stores)
	}
	if string(bk.m["k"]) != "fresh" {
		t.Fatalf("backing holds %q, want the retry's bytes", bk.m["k"])
	}
}

// TestCachePeek: Peek serves settled successes only — no flights, no
// errors, no backing-tier consultation.
func TestCachePeek(t *testing.T) {
	bk := newMapBacking()
	bk.m["disk-only"] = []byte("on disk")
	c := &Cache[string, []byte]{Backing: bk}
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek fabricated a value for an absent key")
	}
	loads := bk.loads
	if _, ok := c.Peek("disk-only"); ok || bk.loads != loads {
		t.Fatalf("Peek consulted the backing tier (ok=%v, loads=%d)", ok, bk.loads-loads)
	}
	if _, err := c.Do("good", func() ([]byte, error) { return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Peek("good"); !ok || string(v) != "v" {
		t.Fatalf("Peek(good) = %q, %v", v, ok)
	}
	wantErr := errors.New("deterministic failure")
	if _, err := c.Do("bad", func() ([]byte, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatal(err)
	}
	if _, ok := c.Peek("bad"); ok {
		t.Fatal("Peek served an error entry")
	}
	// An in-progress flight is not peekable.
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do("slow", func() ([]byte, error) { close(started); <-release; return []byte("s"), nil })
	<-started
	if _, ok := c.Peek("slow"); ok {
		t.Fatal("Peek served an unsettled flight")
	}
	close(release)
}
