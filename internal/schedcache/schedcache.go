// Package schedcache implements the 8 KB Schedule Cache (SC) of Section
// 3.3.2: trace-cache-style storage for memoized schedules with End-of-Trace
// markers, and an eviction policy that throws out traces deemed
// unmemoizable before falling back to LRU.
// Writes are expensive (traces are compacted to avoid fragmentation), so
// producers insert conservatively; the cost shows up in the energy model.
package schedcache

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultCapacityBytes is the paper's empirically chosen SC size.
const DefaultCapacityBytes = 8 << 10

// Cache is one core's Schedule Cache.
type Cache struct {
	capBytes  int
	usedBytes int
	entries   map[trace.ID]*entry
	tick      uint64

	// Run totals, published once by PublishTelemetry.
	hits, misses, inserts, evictions, bytesWritten int64
}

type entry struct {
	sched        *trace.Schedule
	size         int
	lastUse      uint64
	unmemoizable bool
}

// New builds an SC with the given capacity (DefaultCapacityBytes if <= 0).
func New(capBytes int) *Cache {
	if capBytes <= 0 {
		capBytes = DefaultCapacityBytes
	}
	return &Cache{
		capBytes: capBytes,
		entries:  make(map[trace.ID]*entry),
	}
}

// Capacity returns the configured capacity in bytes.
func (c *Cache) Capacity() int { return c.capBytes }

// UsedBytes returns current occupancy (what a migration must transfer).
func (c *Cache) UsedBytes() int { return c.usedBytes }

// Len returns the number of resident schedules.
func (c *Cache) Len() int { return len(c.entries) }

// PublishTelemetry adds this SC's run totals to the registry's counters
// under prefix (e.g. "core0.sc"): lookup hits and misses, inserts,
// evictions and bytes written. Call it once, after the run's last access
// and on the goroutine that made it. A nil registry is a no-op.
func (c *Cache) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix + ".hits").Add(c.hits)
	reg.Counter(prefix + ".misses").Add(c.misses)
	reg.Counter(prefix + ".inserts").Add(c.inserts)
	reg.Counter(prefix + ".evictions").Add(c.evictions)
	reg.Counter(prefix + ".bytes_written").Add(c.bytesWritten)
}

// Lookup consults the SC for a trace about to execute. On a hit it returns
// the memoized schedule; on a miss the core falls back to fetching
// program-order instructions from its L1I.
func (c *Cache) Lookup(id trace.ID) (*trace.Schedule, bool) {
	c.tick++
	e, ok := c.entries[id]
	if !ok || e.unmemoizable {
		c.misses++
		return nil, false
	}
	e.lastUse = c.tick
	c.hits++
	return e.sched, true
}

// Contains reports residency without touching counters.
func (c *Cache) Contains(id trace.ID) bool {
	e, ok := c.entries[id]
	return ok && !e.unmemoizable
}

// Insert stores a schedule, evicting as needed. It returns an error only if
// the schedule can never fit (bigger than the whole SC).
func (c *Cache) Insert(s *trace.Schedule) error {
	size := s.SizeBytes()
	if size > c.capBytes {
		return fmt.Errorf("schedcache: schedule for trace %d (%d B) exceeds capacity %d B",
			s.TraceID, size, c.capBytes)
	}
	if old, ok := c.entries[s.TraceID]; ok {
		c.usedBytes -= old.size
		delete(c.entries, s.TraceID)
	}
	for c.usedBytes+size > c.capBytes {
		c.evictOne()
	}
	c.tick++
	c.entries[s.TraceID] = &entry{sched: s, size: size, lastUse: c.tick}
	c.usedBytes += size
	c.inserts++
	c.bytesWritten += int64(size)
	return nil
}

// MarkUnmemoizable flags a resident trace as stale/unprofitable; such
// entries are evicted first (the paper's eviction policy).
func (c *Cache) MarkUnmemoizable(id trace.ID) {
	if e, ok := c.entries[id]; ok {
		e.unmemoizable = true
	}
}

// evictOne removes the best victim: unmemoizable entries first, then LRU.
func (c *Cache) evictOne() {
	var victim trace.ID
	var ve *entry
	for id, e := range c.entries {
		switch {
		case ve == nil,
			e.unmemoizable && !ve.unmemoizable,
			e.unmemoizable == ve.unmemoizable && e.lastUse < ve.lastUse:
			victim, ve = id, e
		}
	}
	if ve == nil {
		return
	}
	c.usedBytes -= ve.size
	delete(c.entries, victim)
	c.evictions++
}

// Flush empties the SC (application migrated away; its successor gets a
// fresh transfer).
func (c *Cache) Flush() {
	c.entries = make(map[trace.ID]*entry)
	c.usedBytes = 0
}

// CopyFrom replaces this SC's contents with src's — the SC transfer that
// rides the coherent bus when an application migrates from the producer OoO
// to a consumer InO. The returned byte count sizes the bus transfer.
func (c *Cache) CopyFrom(src *Cache) int {
	c.Flush()
	moved := 0
	for id, e := range src.entries {
		if e.unmemoizable {
			continue
		}
		cp := *e
		c.tick++
		cp.lastUse = c.tick
		c.entries[id] = &cp
		c.usedBytes += e.size
		moved += e.size
	}
	return moved
}

// IDs returns the resident trace IDs (diagnostics and tests).
func (c *Cache) IDs() []trace.ID {
	ids := make([]trace.ID, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	return ids
}
