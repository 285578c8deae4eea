// TLB model: per-core instruction and data translation lookaside buffers
// (Section 3.1: "Each core has its own L1 Instruction and Data caches, and
// Translation Lookaside Buffers"). Migrating an application leaves the
// destination core's TLBs cold, adding page-walk latency to the warmup
// cost the paper attributes to stateful structures.

package mem

// TLB geometry and costs: a 64-entry fully-associative LRU TLB over 4 KB
// pages, with a fixed-cost hardware page walk on a miss.
const (
	TLBEntries   = 64
	PageBytes    = 4 << 10
	PageWalkCost = 20 // cycles; walks mostly hit the L2
	pageShift    = 12
)

// TLB is a fully-associative, LRU translation buffer. Slots [0, n) hold
// resident pages with the tick of their last use; every access takes a
// fresh tick, so the least-recently-used slot is the unique minimum.
type TLB struct {
	pages  [TLBEntries]uint64
	ticks  [TLBEntries]uint64
	n      int
	mru    int // slot of the most recent access; checked first
	tick   uint64
	hits   uint64
	misses uint64
}

// NewTLB returns an empty TLB.
func NewTLB() *TLB {
	return &TLB{}
}

// Access translates addr, returning the added latency (0 on a hit, the
// page-walk cost on a miss).
func (t *TLB) Access(addr uint64) int {
	t.tick++
	page := addr >> pageShift
	if t.n > 0 && t.pages[t.mru] == page {
		t.ticks[t.mru] = t.tick
		t.hits++
		return 0
	}
	for i := 0; i < t.n; i++ {
		if t.pages[i] == page {
			t.ticks[i] = t.tick
			t.mru = i
			t.hits++
			return 0
		}
	}
	t.misses++
	slot := t.n
	if t.n < TLBEntries {
		t.n++
	} else {
		slot = 0
		for i := 1; i < TLBEntries; i++ {
			if t.ticks[i] < t.ticks[slot] {
				slot = i
			}
		}
	}
	t.pages[slot] = page
	t.ticks[slot] = t.tick
	t.mru = slot
	return PageWalkCost
}

// Flush empties the TLB (core migration).
func (t *TLB) Flush() {
	t.n = 0
}

// Stats returns hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Len returns the number of resident translations.
func (t *TLB) Len() int { return t.n }
