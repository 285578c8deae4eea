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

// hintEntries sizes the TLB's page-to-slot hint.
const hintEntries = 256

// hintIndex hashes a page to its hint entry (Fibonacci hashing: the top
// eight bits of the page times 2^64/φ). A page's low bits alone would not
// do: a benchmark's address streams sit 4 GiB apart, so their pages at the
// same offset share every low bit.
func hintIndex(page uint64) int { return int(page * 0x9e3779b97f4a7c15 >> 56) }

// TLB is a fully-associative, LRU translation buffer. Slots [0, n) hold
// resident pages with the tick of their last use; every access takes a
// fresh tick, so the least-recently-used slot is the unique minimum.
//
// A lookup checks the most recently used slot, then the slot the page's
// hint names, then scans. A hint is the slot where a page with that hint
// index last hit or was filled; pages that share an index overwrite each
// other's hints, so a hint is trusted only when its slot holds the page.
// A caller may also keep the slot an access used and check it first with
// hitSlot, as the walk does per stream.
type TLB struct {
	pages  [TLBEntries]uint64
	ticks  [TLBEntries]uint64
	hint   [hintEntries]uint8
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
	lat, _ := t.access(addr)
	return lat
}

// hitSlot checks a slot hint. If slot holds addr's page it does what
// Access does on that hit and returns true: a page sits in only one
// resident slot, so that slot is the one Access's search would find.
// Otherwise (a stale hint, or a slot past n after a flush) it changes
// nothing and returns false, and the caller falls back to access. mru and
// hint are search shortcuts, so leaving them is exact.
func (t *TLB) hitSlot(addr uint64, slot uint8) bool {
	if int(slot) >= t.n || t.pages[slot] != addr>>pageShift {
		return false
	}
	t.tick++
	t.ticks[slot] = t.tick
	t.hits++
	return true
}

// skipHits counts n hits without stamping any slot, as Cache.SkipHits
// does for a cache, and is exact under the same rule.
func (t *TLB) skipHits(n uint64) {
	t.tick += n
	t.hits += n
}

// access is Access, returning also the slot that now holds addr's page.
func (t *TLB) access(addr uint64) (int, uint8) {
	t.tick++
	page := addr >> pageShift
	if t.n > 0 && t.pages[t.mru] == page {
		t.ticks[t.mru] = t.tick
		t.hits++
		return 0, uint8(t.mru)
	}
	hint := &t.hint[hintIndex(page)]
	slot := int(*hint)
	if slot >= t.n || t.pages[slot] != page {
		slot = -1
		for i := 0; i < t.n; i++ {
			if t.pages[i] == page {
				slot = i
				break
			}
		}
	}
	if slot >= 0 {
		t.ticks[slot] = t.tick
		t.mru = slot
		*hint = uint8(slot)
		t.hits++
		return 0, uint8(slot)
	}
	t.misses++
	slot = t.n
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
	*hint = uint8(slot)
	return PageWalkCost, uint8(slot)
}

// Flush empties the TLB (core migration).
func (t *TLB) Flush() {
	t.n = 0
}

// Stats returns hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Len returns the number of resident translations.
func (t *TLB) Len() int { return t.n }
