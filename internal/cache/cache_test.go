package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// Probe reports whether addr is resident without updating state: the
// tests' observer of residency.
func (c *Cache) Probe(addr uint64) bool {
	_, _, w := c.lookup(addr)
	return w >= 0
}

func smallCache() *Cache {
	return New(Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 2})
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x1030) {
		t.Error("same-line access should hit")
	}
	s := c.stats
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats %+v, want 3 accesses 1 miss", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 8 sets x 2 ways
	// Three lines mapping to the same set (stride = sets*line = 512).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("MRU line evicted")
	}
	if c.Probe(b) {
		t.Error("LRU line survived eviction")
	}
	if !c.Probe(d) {
		t.Error("newly filled line absent")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := smallCache()
	c.Access(0)
	before := c.stats
	c.Probe(0)
	c.Probe(4096)
	if c.stats != before {
		t.Error("Probe changed statistics")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 8; i++ {
		c.Access(i * 64)
	}
	if c.Occupancy() != 8 {
		t.Errorf("occupancy %d, want 8", c.Occupancy())
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Errorf("occupancy after flush %d", c.Occupancy())
	}
	if c.Probe(0) {
		t.Error("line survived flush")
	}
}

func TestOccupancyBounded(t *testing.T) {
	c := smallCache()
	err := quick.Check(func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		return c.Occupancy() <= 16 // 1024/64 lines
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestPrefetchMarksLines(t *testing.T) {
	c := smallCache()
	c.Prefetch(0x2000)
	if !c.Probe(0x2000) {
		t.Error("prefetched line absent")
	}
	if !c.Access(0x2000) {
		t.Error("access to prefetched line should hit")
	}
	s := c.stats
	if s.Prefetches != 1 || s.PrefetchHits != 1 {
		t.Errorf("prefetch stats %+v", s)
	}
	// Prefetching a resident line is a no-op.
	c.Prefetch(0x2000)
	if c.stats.Prefetches != 1 {
		t.Error("duplicate prefetch counted")
	}
}

// TestLineBytes pins the per-line cost: an 8-byte tag, an 8-byte last-use
// tick and a prefetched flag, 17 bytes, so an L2's 32k lines take 544 KiB;
// and an 8-way set's tags fill exactly one 64-byte host cache line.
func TestLineBytes(t *testing.T) {
	c := New(Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 8})
	lines := len(c.tags)
	if lines != 32<<10 || len(c.lastUse) != lines || len(c.prefetched) != lines {
		t.Fatalf("%d tags, %d ticks, %d flags for 32768 lines", lines, len(c.lastUse), len(c.prefetched))
	}
	per := unsafe.Sizeof(c.tags[0]) + unsafe.Sizeof(c.lastUse[0]) + unsafe.Sizeof(c.prefetched[0])
	if per != 17 {
		t.Errorf("a line costs %d bytes, want 17", per)
	}
	if set := uintptr(c.cfg.Assoc) * unsafe.Sizeof(c.tags[0]); set != 64 {
		t.Errorf("an 8-way set's tags take %d bytes, want 64", set)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Assoc: 2},
		{Name: "badline", SizeBytes: 1024, LineBytes: 48, Assoc: 2},
		{Name: "badsets", SizeBytes: 64 * 6, LineBytes: 64, Assoc: 2},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStridePrefetcherLocksOn(t *testing.T) {
	target := New(Config{Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4})
	p := NewStridePrefetcher(target, 2)
	// Constant stride of 64: after confidence builds, subsequent lines
	// should already be resident.
	addr := uint64(0x10000)
	for i := 0; i < 6; i++ {
		p.Observe(3, addr)
		addr += 64
	}
	if !target.Probe(addr) || !target.Probe(addr+64) {
		t.Error("prefetcher did not run ahead of a constant stride")
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	target := New(Config{Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4})
	p := NewStridePrefetcher(target, 2)
	addrs := []uint64{0x1000, 0x9040, 0x2480, 0xff80, 0x0300, 0x7777}
	for _, a := range addrs {
		p.Observe(5, a)
	}
	if n := target.stats.Prefetches; n > 2 {
		t.Errorf("random stream triggered %d prefetches", n)
	}
}

func TestStridePrefetcherReset(t *testing.T) {
	target := New(Config{Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4})
	p := NewStridePrefetcher(target, 2)
	for i := 0; i < 4; i++ {
		p.Observe(1, uint64(i*64))
	}
	p.Reset()
	before := target.stats.Prefetches
	p.Observe(1, 0x8000) // first observation after reset: no stride known
	if target.stats.Prefetches != before {
		t.Error("reset prefetcher still prefetching")
	}
}

func TestConfigAccessors(t *testing.T) {
	c := smallCache()
	if c.Config().SizeBytes != 1024 || c.LineBytes() != 64 {
		t.Error("config accessors wrong")
	}
}
