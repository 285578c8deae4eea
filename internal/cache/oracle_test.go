package cache

import (
	"testing"

	"repro/internal/xrand"
)

// lruModel is the naive cache the packed Cache must match: each set is a
// list of resident blocks, most recently used first, so the victim is the
// list's tail.
type lruModel struct {
	lineBytes, sets, assoc int
	ways                   [][]modelLine
	stats                  Stats
}

type modelLine struct {
	block      uint64
	prefetched bool
}

func newLRUModel(cfg Config) *lruModel {
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	if sets == 0 {
		sets = 1
	}
	return &lruModel{lineBytes: cfg.LineBytes, sets: sets, assoc: cfg.Assoc, ways: make([][]modelLine, sets)}
}

// find returns addr's set, block and position in the set's list (-1 if
// absent).
func (m *lruModel) find(addr uint64) (set int, block uint64, at int) {
	block = addr / uint64(m.lineBytes)
	set = int(block % uint64(m.sets))
	for i, l := range m.ways[set] {
		if l.block == block {
			return set, block, i
		}
	}
	return set, block, -1
}

// insert puts a block at the head of its set, dropping the tail when the
// set is full.
func (m *lruModel) insert(set int, l modelLine) {
	w := m.ways[set]
	if len(w) == m.assoc {
		w = w[:len(w)-1]
		m.stats.Evictions++
	}
	m.ways[set] = append([]modelLine{l}, w...)
}

func (m *lruModel) Access(addr uint64) bool {
	m.stats.Accesses++
	set, block, at := m.find(addr)
	if at < 0 {
		m.stats.Misses++
		m.insert(set, modelLine{block: block})
		return false
	}
	l := m.ways[set][at]
	if l.prefetched {
		m.stats.PrefetchHits++
		l.prefetched = false
	}
	m.ways[set] = append(m.ways[set][:at], m.ways[set][at+1:]...)
	m.ways[set] = append([]modelLine{l}, m.ways[set]...)
	return true
}

func (m *lruModel) Probe(addr uint64) bool {
	_, _, at := m.find(addr)
	return at >= 0
}

func (m *lruModel) Prefetch(addr uint64) {
	set, block, at := m.find(addr)
	if at >= 0 {
		return
	}
	m.stats.Prefetches++
	m.insert(set, modelLine{block: block, prefetched: true})
}

func (m *lruModel) Flush() {
	for i := range m.ways {
		m.ways[i] = nil
	}
}

func (m *lruModel) Occupancy() int {
	n := 0
	for _, w := range m.ways {
		n += len(w)
	}
	return n
}

// oracleGeometries are small caches, so a short op stream fills and
// thrashes their sets, plus the L2's associativity.
var oracleGeometries = []Config{
	{Name: "direct", SizeBytes: 256, LineBytes: 64, Assoc: 1},
	{Name: "2way", SizeBytes: 512, LineBytes: 64, Assoc: 2},
	{Name: "4way", SizeBytes: 1024, LineBytes: 32, Assoc: 4},
	{Name: "8way", SizeBytes: 2048, LineBytes: 64, Assoc: 8},
	{Name: "1set", SizeBytes: 256, LineBytes: 64, Assoc: 4},
}

// diffCache decodes ops two bytes at a time and replays them through a
// cache of geometry cfg and the model, reporting the first divergence in a
// result, in occupancy or in any Stats counter. The first byte's top three
// bits pick the operation (Flush is rare); the rest and the second byte
// pick one of 8192 blocks and an offset within it. Kinds 2 and 3 are
// hinted accesses: HitWay, falling back to AccessWay. Kind 2's hint is the
// way the last hinted access left; kind 3's is the block modulo the line
// count, an in-range way that is often stale and often of another set.
func diffCache(t *testing.T, cfg Config, ops []byte) {
	t.Helper()
	got, want := New(cfg), newLRUModel(cfg)
	var hint uint32
	for i := 0; i+1 < len(ops); i += 2 {
		kind := ops[i] >> 5
		block := uint64(ops[i]&31)<<8 | uint64(ops[i+1])
		addr := block*uint64(cfg.LineBytes) + uint64(i*7)%uint64(cfg.LineBytes)
		switch kind {
		case 0, 1:
			if g, w := got.Access(addr), want.Access(addr); g != w {
				t.Fatalf("%s op %d: Access(%#x) = %v, model %v", cfg.Name, i/2, addr, g, w)
			}
		case 2, 3:
			if kind == 3 {
				hint = uint32(block % uint64(len(got.tags)))
			}
			g := got.HitWay(addr, hint)
			if !g {
				g, hint = got.AccessWay(addr)
			}
			if w := want.Access(addr); g != w {
				t.Fatalf("%s op %d: hinted access(%#x) = %v, model %v", cfg.Name, i/2, addr, g, w)
			}
			if got.tags[hint] != addr/uint64(cfg.LineBytes)+1 {
				t.Fatalf("%s op %d: hinted access(%#x) left hint %d, which holds another line", cfg.Name, i/2, addr, hint)
			}
		case 4, 5:
			if g, w := got.Probe(addr), want.Probe(addr); g != w {
				t.Fatalf("%s op %d: Probe(%#x) = %v, model %v", cfg.Name, i/2, addr, g, w)
			}
		case 6:
			got.Prefetch(addr)
			want.Prefetch(addr)
		case 7:
			if block%16 == 0 {
				got.Flush()
				want.Flush()
			} else {
				got.Prefetch(addr)
				want.Prefetch(addr)
			}
		}
		if g, w := got.Occupancy(), want.Occupancy(); g != w {
			t.Fatalf("%s op %d: Occupancy %d, model %d", cfg.Name, i/2, g, w)
		}
		if got.stats != want.stats {
			t.Fatalf("%s op %d: stats %+v, model %+v", cfg.Name, i/2, got.stats, want.stats)
		}
	}
}

// TestCacheMatchesOracle drives random streams over small hot block sets,
// with prefetches, probes and rare flushes, through every oracle geometry.
func TestCacheMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := xrand.New(seed)
		hot := 1 + rng.Intn(64) // working sets under and over capacity
		ops := make([]byte, 6000)
		for i := 0; i+1 < len(ops); i += 2 {
			block := rng.Intn(hot)
			if rng.Bool(0.1) {
				block = rng.Intn(8192)
			}
			kind := byte(rng.Intn(7))
			if rng.Bool(0.002) {
				kind, block = 7, 16*rng.Intn(512)
			}
			ops[i] = kind<<5 | byte(block>>8)
			ops[i+1] = byte(block)
		}
		for _, cfg := range oracleGeometries {
			diffCache(t, cfg, ops)
		}
	}
}

// FuzzCache checks the packed cache against the LRU model for any op
// stream, on every oracle geometry.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 0xc0, 3, 0, 3, 0x80, 1, 0xe0, 0})
	thrash := make([]byte, 0, 400)
	for i := 0; i < 200; i++ {
		// Blocks 0, 8, 16, ... share a set in every geometry above.
		thrash = append(thrash, 0, byte(8*(i%12)))
	}
	f.Add(thrash)
	// A hint naming a way of another set: blocks 2 and 6 fill set 2 of the
	// 2-way geometry, ways 4 and 5; then block 5, of set 1, is hinted at
	// way 5, whose block agrees with it above the set bits.
	f.Add([]byte{0, 2, 0, 6, 0x60, 5, 0x40, 5})
	// A hinted hit on a prefetched line: block 0 is prefetched into way 0,
	// then hinted at way 0; the hit must count a prefetch hit.
	f.Add([]byte{0xc0, 0, 0x60, 0, 0x40, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, cfg := range oracleGeometries {
			diffCache(t, cfg, ops)
		}
	})
}
