// Package cache implements the set-associative caches used by the memory
// hierarchy: plain LRU caches for the L1s and an L2 with a stride
// prefetcher, matching Table 2 of the paper.
package cache

import (
	"fmt"

	"repro/internal/telemetry"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency int
}

// Stats accumulates access counters for a cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Evictions  uint64
	Prefetches uint64
	// PrefetchHits counts demand accesses that hit a prefetched line.
	PrefetchHits uint64
}

// line is one cache block's state, ordered so it packs into 24 bytes.
type line struct {
	tag        uint64
	lastUse    uint64
	valid      bool
	prefetched bool
}

// Cache is a set-associative, write-allocate, LRU cache model. It tracks
// presence only (no data), which is all the timing model needs.
type Cache struct {
	cfg Config
	// lines holds every set's ways back to back: set i is
	// lines[i*Assoc : (i+1)*Assoc].
	lines    []line
	setShift uint
	setMask  uint64
	tick     uint64
	stats    Stats
}

// New builds a cache from cfg. It panics on non-power-of-two geometry since
// configurations are compile-time constants in this simulator.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Assoc
	if nSets == 0 {
		nSets = 1
	}
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, nSets))
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nSets*cfg.Assoc),
		setShift: shift,
		setMask:  uint64(nSets - 1),
	}
}

// set returns the ways of set i.
func (c *Cache) set(i int) []line { return c.lines[i*c.cfg.Assoc : (i+1)*c.cfg.Assoc] }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the current counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// PublishTelemetry adds this cache's counters to the registry's counters
// under prefix (e.g. "core0.mem.l1d"). Call it once, after the run's last
// access and on the goroutine that made them, so a concurrent registry
// snapshot never reads live cache state. A nil registry is a no-op.
func (c *Cache) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix + ".accesses").Add(int64(c.stats.Accesses))
	reg.Counter(prefix + ".misses").Add(int64(c.stats.Misses))
	reg.Counter(prefix + ".evictions").Add(int64(c.stats.Evictions))
	reg.Counter(prefix + ".prefetches").Add(int64(c.stats.Prefetches))
	reg.Counter(prefix + ".prefetch_hits").Add(int64(c.stats.PrefetchHits))
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> 0
}

// Access touches addr. It returns true on a hit. On a miss the line is
// allocated (evicting LRU).
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	c.stats.Accesses++
	set, tag := c.index(addr)
	lines := c.set(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lastUse = c.tick
			if lines[i].prefetched {
				c.stats.PrefetchHits++
				lines[i].prefetched = false
			}
			return true
		}
	}
	c.stats.Misses++
	c.fill(set, tag, false)
	return false
}

// Probe reports whether addr is resident without updating state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, ln := range c.set(set) {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Prefetch inserts addr if absent, marking it as prefetched.
func (c *Cache) Prefetch(addr uint64) {
	set, tag := c.index(addr)
	for _, ln := range c.set(set) {
		if ln.valid && ln.tag == tag {
			return
		}
	}
	c.tick++
	c.stats.Prefetches++
	c.fill(set, tag, true)
}

func (c *Cache) fill(set int, tag uint64, prefetched bool) {
	lines := c.set(set)
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			goto place
		}
		if lines[i].lastUse < lines[victim].lastUse {
			victim = i
		}
	}
	c.stats.Evictions++
place:
	lines[victim] = line{tag: tag, valid: true, lastUse: c.tick, prefetched: prefetched}
}

// Flush invalidates all contents (used when an application migrates away
// from a core: the paper models cold L1s on arrival at the new core).
func (c *Cache) Flush() {
	clear(c.lines)
}

// Occupancy returns the number of valid lines (for warmup-cost modeling).
func (c *Cache) Occupancy() int {
	n := 0
	for _, ln := range c.lines {
		if ln.valid {
			n++
		}
	}
	return n
}

// LineBytes returns the block size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// StridePrefetcher is a simple per-stream stride prefetcher attached to the
// L2 (Table 2: "2 MB Shared L2 Cache with stride prefetcher"). It watches
// miss addresses, detects constant strides and prefetches ahead.
type StridePrefetcher struct {
	target *Cache
	// Degree is how many lines ahead to prefetch once a stride locks.
	Degree  int
	entries [16]strideEntry
}

type strideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int8
	valid    bool
	streamID uint8
}

// NewStridePrefetcher attaches a prefetcher to target.
func NewStridePrefetcher(target *Cache, degree int) *StridePrefetcher {
	if degree <= 0 {
		degree = 2
	}
	return &StridePrefetcher{target: target, Degree: degree}
}

// Observe notifies the prefetcher of a demand access on a stream. streamID
// stands in for the PC-based table index a hardware prefetcher would use.
func (p *StridePrefetcher) Observe(streamID uint8, addr uint64) {
	idx := int(streamID) % len(p.entries)
	e := &p.entries[idx]
	if !e.valid || e.streamID != streamID {
		*e = strideEntry{lastAddr: addr, valid: true, streamID: streamID}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
	}
	e.lastAddr = addr
	if e.conf >= 2 {
		next := int64(addr)
		for i := 0; i < p.Degree; i++ {
			next += e.stride
			if next > 0 {
				p.target.Prefetch(uint64(next))
			}
		}
	}
}

// Reset clears learned strides (on migration).
func (p *StridePrefetcher) Reset() {
	for i := range p.entries {
		p.entries[i] = strideEntry{}
	}
}
