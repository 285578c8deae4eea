package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func smallCache() *Cache {
	return New(Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 2})
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
	s := c.Stats()
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
	before := c.Stats()
	c.Probe(0)
	c.Probe(4096)
	if c.Stats() != before {
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
	s := c.Stats()
	if s.Prefetches != 1 || s.PrefetchHits != 1 {
		t.Errorf("prefetch stats %+v", s)
	}
	// Prefetching a resident line is a no-op.
	c.Prefetch(0x2000)
	if c.Stats().Prefetches != 1 {
		t.Error("duplicate prefetch counted")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := smallCache()
	c.Access(0x40)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("stats not cleared")
	}
	if !c.Probe(0x40) {
		t.Error("contents lost on stat reset")
	}
}

// TestLineSize pins the line layout: 24 bytes, so an L2's 32k lines take
// 768 KiB rather than 1 MiB.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 24 {
		t.Errorf("line is %d bytes, want 24", n)
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
	target := New(Config{Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4, HitLatency: 15})
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
	target := New(Config{Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4, HitLatency: 15})
	p := NewStridePrefetcher(target, 2)
	addrs := []uint64{0x1000, 0x9040, 0x2480, 0xff80, 0x0300, 0x7777}
	for _, a := range addrs {
		p.Observe(5, a)
	}
	if n := target.Stats().Prefetches; n > 2 {
		t.Errorf("random stream triggered %d prefetches", n)
	}
}

func TestStridePrefetcherReset(t *testing.T) {
	target := New(Config{Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4, HitLatency: 15})
	p := NewStridePrefetcher(target, 2)
	for i := 0; i < 4; i++ {
		p.Observe(1, uint64(i*64))
	}
	p.Reset()
	before := target.Stats().Prefetches
	p.Observe(1, 0x8000) // first observation after reset: no stride known
	if target.Stats().Prefetches != before {
		t.Error("reset prefetcher still prefetching")
	}
}

func TestConfigAccessors(t *testing.T) {
	c := smallCache()
	if c.Config().SizeBytes != 1024 || c.LineBytes() != 64 {
		t.Error("config accessors wrong")
	}
}
