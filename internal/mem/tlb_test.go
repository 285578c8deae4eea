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

// tlbPages are the 97 pages the fuzz bytes name: more than TLBEntries, so
// the LRU victim choice is exercised, in eight groups of twelve or thirteen
// distinct pages that share a hint index, so hints collide. Page k is the
// (k/8)-th page found with the (k%8)-th index met.
var tlbPages = func() (pages [97]uint64) {
	var groups [][]uint64
	at := map[int]int{}
	short := 8 // groups not yet holding 13 pages
	for p := uint64(0); short > 0; p++ {
		g, ok := at[hintIndex(p)]
		if !ok {
			if len(groups) == 8 {
				continue
			}
			g = len(groups)
			at[hintIndex(p)] = g
			groups = append(groups, nil)
		}
		if groups[g] = append(groups[g], p); len(groups[g]) == 13 {
			short--
		}
	}
	for k := range pages {
		pages[k] = groups[k%8][k/8]
	}
	return pages
}()

// tlbOp decodes one fuzz byte: 255 flushes, anything else touches page
// tlbPages[b%97] at an in-page offset that varies with the position.
func tlbOp(i int, b byte) (addr uint64, flush bool) {
	if b == 255 {
		return 0, true
	}
	return tlbPages[b%97]*PageBytes + uint64(i*61)%PageBytes, false
}

// diffTLB replays ops through both TLBs and reports the first divergence in
// latency, occupancy or statistics. A byte below 97 is a plain Access;
// from 97 it is a hinted one, hitSlot falling back to access, with the
// slot the last hinted access left (bytes below 194; after a flush that
// slot is past n) or, above, slot i%64, in range and often stale.
func diffTLB(t *testing.T, ops []byte) {
	t.Helper()
	got, want := NewTLB(), newMapTLB()
	var hint uint8
	for i, b := range ops {
		addr, flush := tlbOp(i, b)
		switch {
		case flush:
			got.Flush()
			want.Flush()
		case b < 97:
			if g, w := got.Access(addr), want.Access(addr); g != w {
				t.Fatalf("op %d: access %#x latency %d, oracle %d", i, addr, g, w)
			}
		default:
			if b >= 194 {
				hint = uint8(i % TLBEntries)
			}
			g := 0
			if !got.hitSlot(addr, hint) {
				g, hint = got.access(addr)
			}
			if w := want.Access(addr); g != w {
				t.Fatalf("op %d: hinted access %#x latency %d, oracle %d", i, addr, g, w)
			}
			if got.pages[hint] != addr>>pageShift {
				t.Fatalf("op %d: hinted access %#x left slot %d, which holds another page", i, addr, hint)
			}
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
	// Fill the TLB, then thrash one hint index: bytes 0, 8, ..., 96 are
	// thirteen distinct pages with the same hint index, resident and
	// evicted in turn as more pages stream through.
	full := make([]byte, 0, 400)
	for k := 0; k < TLBEntries; k++ {
		full = append(full, byte(k))
	}
	for r := 0; r < 20; r++ {
		for k := 0; k <= 96; k += 8 {
			full = append(full, byte(k))
		}
		full = append(full, byte(64+r%33))
	}
	f.Add(full)
	// Stale slots past n: page 1 is filled into slot 1, the TLB is flushed,
	// page 0 fills slot 0, and page 1 is hinted at slot 1, which still holds
	// it but is past n; then page 0 is hinted at the slot page 1 missed into.
	f.Add([]byte{97, 98, 255, 0, 98, 97})
	f.Fuzz(func(t *testing.T, ops []byte) {
		diffTLB(t, ops)
	})
}

// TestTLBPagesCollide checks that the fuzz pages are distinct and share
// hint indexes eight ways, so the fuzz reaches hint collisions.
func TestTLBPagesCollide(t *testing.T) {
	seen := map[uint64]bool{}
	byIndex := map[int]int{}
	for _, p := range tlbPages {
		if seen[p] {
			t.Fatalf("page %d repeats", p)
		}
		seen[p] = true
		byIndex[hintIndex(p)]++
	}
	if len(byIndex) != 8 {
		t.Errorf("fuzz pages use %d hint indexes, want 8", len(byIndex))
	}
	for h, n := range byIndex {
		if n < 12 {
			t.Errorf("hint index %d has %d pages, want at least 12", h, n)
		}
	}
}
