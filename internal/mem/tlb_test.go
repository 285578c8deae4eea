package mem

import (
	"testing"

	"repro/internal/xrand"
)

// mapTLB is the map-based TLB the array version replaced, kept as the
// oracle: a page -> last-use-tick map with a min-tick LRU victim scan.
type mapTLB struct {
	pages        map[uint64]uint64
	tick         uint64
	hits, misses uint64
}

func newMapTLB() *mapTLB { return &mapTLB{pages: make(map[uint64]uint64, TLBEntries)} }

func (t *mapTLB) Access(addr uint64) int {
	t.tick++
	page := addr >> pageShift
	if _, ok := t.pages[page]; ok {
		t.pages[page] = t.tick
		t.hits++
		return 0
	}
	t.misses++
	if len(t.pages) >= TLBEntries {
		var victim uint64
		oldest := t.tick + 1
		for p, use := range t.pages {
			if use < oldest {
				oldest = use
				victim = p
			}
		}
		delete(t.pages, victim)
	}
	t.pages[page] = t.tick
	return PageWalkCost
}

func (t *mapTLB) Flush() { t.pages = make(map[uint64]uint64, TLBEntries) }

// tlbOp decodes one fuzz byte: 255 flushes, anything else touches one of 97
// pages (more than TLBEntries, so the LRU victim choice is exercised) at an
// in-page offset that varies with the position.
func tlbOp(i int, b byte) (addr uint64, flush bool) {
	if b == 255 {
		return 0, true
	}
	return uint64(b%97)*PageBytes + uint64(i*61)%PageBytes, false
}

// diffTLB replays ops through both TLBs and reports the first divergence in
// latency, occupancy or statistics.
func diffTLB(t *testing.T, ops []byte) {
	t.Helper()
	got, want := NewTLB(), newMapTLB()
	for i, b := range ops {
		addr, flush := tlbOp(i, b)
		if flush {
			got.Flush()
			want.Flush()
		} else if g, w := got.Access(addr), want.Access(addr); g != w {
			t.Fatalf("op %d: access %#x latency %d, oracle %d", i, addr, g, w)
		}
		if got.Len() != len(want.pages) {
			t.Fatalf("op %d: %d resident, oracle %d", i, got.Len(), len(want.pages))
		}
	}
	gh, gm := got.Stats()
	if gh != want.hits || gm != want.misses {
		t.Fatalf("stats %d/%d, oracle %d/%d", gh, gm, want.hits, want.misses)
	}
}

// TestTLBMatchesMapOracle drives random access streams with occasional
// flushes through the array TLB and the map oracle.
func TestTLBMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		ops := make([]byte, 4000)
		hot := 1 + rng.Intn(96) // working sets both under and over capacity
		for i := range ops {
			switch {
			case rng.Bool(0.002):
				ops[i] = 255
			case rng.Bool(0.8):
				ops[i] = byte(rng.Intn(hot))
			default:
				ops[i] = byte(rng.Intn(255))
			}
		}
		diffTLB(t, ops)
	}
}

// FuzzTLB checks that the array TLB returns the oracle's latency sequence
// and statistics for any access/flush stream.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 255, 0})
	seq := make([]byte, 0, 200)
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i%70))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		diffTLB(t, ops)
	})
}
