// Package cache implements the set-associative caches used by the memory
// hierarchy: plain LRU caches for the L1s and an L2 with a stride
// prefetcher, matching Table 2 of the paper.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
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

// Cache is a set-associative, write-allocate, LRU cache model. It tracks
// presence only (no data), which is all the timing model needs.
//
// Every set's ways sit back to back in three parallel arrays: set i is
// ways [i*Assoc, (i+1)*Assoc). A way's tag is its block number plus one,
// and zero when the way is invalid, so a lookup reads only the tags: an
// 8-way set's tags fill one 64-byte host cache line. valid counts the
// ways with a nonzero tag.
type Cache struct {
	cfg        Config
	tags       []uint64
	lastUse    []uint64
	prefetched []bool
	setShift   uint
	setMask    uint64
	tick       uint64
	valid      int
	stats      Stats
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
	n := nSets * cfg.Assoc
	return &Cache{
		cfg:        cfg,
		tags:       make([]uint64, n),
		lastUse:    make([]uint64, n),
		prefetched: make([]bool, n),
		setShift:   shift,
		setMask:    uint64(nSets - 1),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// lookup returns the first way of addr's set and addr's tag, and the way
// holding addr, or -1 when it is not resident.
func (c *Cache) lookup(addr uint64) (base int, tag uint64, way int) {
	blk := addr >> c.setShift
	base = int(blk&c.setMask) * c.cfg.Assoc
	tag = blk + 1
	for i, t := range c.tags[base : base+c.cfg.Assoc] {
		if t == tag {
			return base, tag, base + i
		}
	}
	return base, tag, -1
}

// Access touches addr. It returns true on a hit. On a miss the line is
// allocated (evicting LRU).
func (c *Cache) Access(addr uint64) bool {
	hit, _ := c.AccessWay(addr)
	return hit
}

// AccessWay is Access, returning also the way that now holds addr, which
// a caller may keep as a hint for HitWay.
func (c *Cache) AccessWay(addr uint64) (hit bool, way uint32) {
	c.tick++
	c.stats.Accesses++
	base, tag, w := c.lookup(addr)
	if w >= 0 {
		c.lastUse[w] = c.tick
		if c.prefetched[w] {
			c.stats.PrefetchHits++
			c.prefetched[w] = false
		}
		return true, uint32(w)
	}
	c.stats.Misses++
	return false, uint32(c.fill(base, tag, false))
}

// HitWay checks a way hint, which must be below the cache's line count.
// If way holds addr's line, not prefetched, it does what Access does on
// that hit and returns true: a tag lives only in its own set, so that way
// is the one Access's search would find. Otherwise (a stale hint, a way of
// another set, a prefetched line) it changes nothing and returns false,
// and the caller falls back to AccessWay.
func (c *Cache) HitWay(addr uint64, way uint32) bool {
	if c.tags[way] != addr>>c.setShift+1 || c.prefetched[way] {
		return false
	}
	c.tick++
	c.stats.Accesses++
	c.lastUse[way] = c.tick
	return true
}

// SkipHits counts n hits without stamping any line: the tick and the
// access count move as n hits would. It is exact only when every line
// those hits would have stamped is touched again before the cache next
// compares ticks, so each line's last use ends where the hits would leave
// it.
func (c *Cache) SkipHits(n uint64) {
	c.tick += n
	c.stats.Accesses += n
}

// Prefetch inserts addr if absent, marking it as prefetched.
func (c *Cache) Prefetch(addr uint64) {
	base, tag, w := c.lookup(addr)
	if w >= 0 {
		return
	}
	c.tick++
	c.stats.Prefetches++
	c.fill(base, tag, true)
}

// fill places tag in the set starting at way base: in its first invalid
// way, else over its least recently used one. It returns the way.
func (c *Cache) fill(base int, tag uint64, prefetched bool) int {
	victim := -1
	for i, t := range c.tags[base : base+c.cfg.Assoc] {
		if t == 0 {
			victim = base + i
			break
		}
	}
	if victim >= 0 {
		c.valid++
	} else {
		victim = base
		for w := base + 1; w < base+c.cfg.Assoc; w++ {
			if c.lastUse[w] < c.lastUse[victim] {
				victim = w
			}
		}
		c.stats.Evictions++
	}
	c.tags[victim] = tag
	c.lastUse[victim] = c.tick
	c.prefetched[victim] = prefetched
	return victim
}

// Flush invalidates all contents (used when an application migrates away
// from a core: the paper models cold L1s on arrival at the new core).
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.lastUse)
	clear(c.prefetched)
	c.valid = 0
}

// Reset returns the cache to its state when New built it: empty, with zero
// counters.
func (c *Cache) Reset() {
	c.Flush()
	c.tick = 0
	c.stats = Stats{}
}

// Occupancy returns the number of valid lines (for warmup-cost modeling).
func (c *Cache) Occupancy() int { return c.valid }

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
