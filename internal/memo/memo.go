// Package memo is the simulator's exact-repeat memoization: one table type
// behind both process-wide memos, the pipeline's result memo and the memory
// hierarchy's walk memo.
//
// A Table stores entries of a trie. An entry belongs to an owner (an
// interned pointer, such as a trace) and has a key and a value, both bytes;
// its parent is 0 for the root or another entry. Matching is exact: a hash
// only picks a slot among the root's children, and a hit compares the whole
// owner and key. A memo that needs no history, like the pipeline's, keeps
// every entry at the root.
//
// Most keys are never seen twice, so a table stores nothing for a key's
// first sighting but a 32-bit fingerprint in a set-associative filter: a
// fingerprint not in its 8-way bucket goes in at the front, pushing the
// bucket's oldest out, so up to eight keys that share a bucket are all
// admitted on their second sighting. A fingerprint shared by two keys can
// only admit a key early, never serve a wrong entry.
//
// Entries are appended to an arena of fixed chunks. Only an entry's
// first-child link is ever rewritten, so a value found under the lock stays
// valid, and can be decoded, after unlocking. A table is charged its chunks
// and a slot per root hash; when an entry would push the charge over the
// table's budget, the table is cleared and its generation advances, so a
// holder of an entry id can tell that it is gone. Reset empties every table,
// first sightings included, and so does the idle release (idle.go).
package memo

import (
	"encoding/binary"
	"sync"
)

const (
	// ways is the associativity of the first-sighting filter.
	ways = 8
	// chunkSize is the arena's chunk size, and bounds an entry's length.
	chunkSize = 16 << 10
	// rootCharge is the charge for a slot of the root index.
	rootCharge = 32
)

// Hash hashes b: a word-at-a-time mix through splitmix64's finalizer. It is
// fixed rather than seeded per process, so that which keys share a filter
// bucket, and with it a serial run's <core>.memo_hits counts, are the same
// in every run.
func Hash(b []byte) uint64 {
	h := 0x9e3779b97f4a7c15 ^ uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(b))
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	return mix64(h ^ tail)
}

func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Table is one memo: the filter, the arena and the owners interned since
// the last clear, under its one mutex. The methods other than Lock, Unlock
// and Stats must be called with the table locked. Entry id i is at byte
// i-1 of the chunks laid end to end; id 0 is none. An entry is its first
// child's id (4 bytes), its next sibling's id, its owner's index, and its
// key and value, each after its length.
type Table[K comparable] struct {
	sync.Mutex
	budget  int
	gen     uint64
	roots   map[uint64]uint32 // root slot -> newest root child of that slot
	chunks  [][]byte
	owners  map[K]uint64
	entries int
	bytes   int // charged bytes: the chunks, and a rootCharge per root slot
	seen    [][ways]uint32
}

// tables are the tables New made, for Reset.
var tables struct {
	mu  sync.Mutex
	all []interface{ reset() }
}

// New returns an empty table charged at most budget bytes, with a
// first-sighting filter of buckets 8-way buckets, and registers it with
// Reset.
func New[K comparable](budget, buckets int) *Table[K] {
	t := newTable[K](budget, buckets)
	tables.mu.Lock()
	tables.all = append(tables.all, t)
	tables.mu.Unlock()
	return t
}

func newTable[K comparable](budget, buckets int) *Table[K] {
	return &Table[K]{budget: budget, seen: make([][ways]uint32, buckets)}
}

// Reset empties every table, first sightings included, so every key is
// new again as in a fresh process.
func Reset() {
	tables.mu.Lock()
	defer tables.mu.Unlock()
	for _, t := range tables.all {
		t.reset()
	}
}

func (t *Table[K]) reset() {
	t.Lock()
	defer t.Unlock()
	t.clear()
	t.owners = nil
	clear(t.seen)
}

// Stats returns the table's entries and charged bytes.
func (t *Table[K]) Stats() (entries, bytes int) {
	t.Lock()
	defer t.Unlock()
	return t.entries, t.bytes
}

// Gen returns the table's generation, which every clear advances.
func (t *Table[K]) Gen() uint64 { return t.gen }

// Sighted reports whether the fingerprint of sum, uint32(sum>>32)|1 (never
// zero, the empty way), is in bucket sum%buckets, and puts it in at the
// front if not.
func (t *Table[K]) Sighted(sum uint64) bool {
	b := &t.seen[sum%uint64(len(t.seen))]
	fp := uint32(sum>>32) | 1
	for _, w := range b {
		if w == fp {
			return true
		}
	}
	copy(b[1:], b[:])
	b[0] = fp
	return false
}

// Owner returns k's index among the owners of the current generation,
// interning it if intern is set; ok is false for an owner the table does
// not hold. Interning keeps k reachable until the next clear, so no other
// owner can reuse its address meanwhile.
func (t *Table[K]) Owner(k K, intern bool) (idx uint64, ok bool) {
	if idx, ok = t.owners[k]; ok || !intern {
		return idx, ok
	}
	if t.owners == nil {
		t.owners = make(map[K]uint64)
	}
	idx = uint64(len(t.owners))
	t.owners[k] = idx
	return idx, true
}

// rootSlot is the root index's slot of a root child with owner and hash sum.
func rootSlot(owner, sum uint64) uint64 { return sum ^ owner*0x9e3779b97f4a7c15 }

// entry returns the bytes of entry id onwards.
func (t *Table[K]) entry(id uint32) []byte {
	return t.chunks[(id-1)/chunkSize][(id-1)%chunkSize:]
}

// parts splits an entry into its next sibling, owner, key and value.
func parts(e []byte) (sibling uint32, owner uint64, key, val []byte) {
	r := Reader(e[4:])
	sibling, owner = uint32(r.Uvarint()), r.Uvarint()
	n := r.Uvarint()
	key, r = r[:n], r[n:]
	n = r.Uvarint()
	return sibling, owner, key, r[:n:n]
}

// Find returns the newest child of parent whose owner and key are owner and
// key, and its value, or id 0. A root child is found by sum, the hash its
// caller stored it with.
func (t *Table[K]) Find(parent uint32, owner, sum uint64, key []byte) (id uint32, val []byte) {
	if parent == 0 {
		id = t.roots[rootSlot(owner, sum)]
	} else {
		id = binary.LittleEndian.Uint32(t.entry(parent))
	}
	for id != 0 {
		sibling, o, k, v := parts(t.entry(id))
		if o == owner && string(k) == string(key) {
			return id, v
		}
		id = sibling
	}
	return 0, nil
}

// Add stores key and val as parent's newest child under owner, found by
// sum at the root, and returns its id. It stores nothing and returns 0 for
// an entry longer than a chunk, and when the entry's charge would overflow
// the budget: then it clears the table first, so parent and owner are gone.
func (t *Table[K]) Add(parent uint32, owner, sum uint64, key, val []byte) uint32 {
	n := 4 + binary.MaxVarintLen32 + 3*binary.MaxVarintLen64 + len(key) + len(val)
	if n > chunkSize {
		return 0
	}
	cost := 0
	last := len(t.chunks) - 1
	grow := last < 0 || len(t.chunks[last])+n > chunkSize
	if grow {
		cost += chunkSize
	}
	slot := rootSlot(owner, sum)
	var sibling uint32
	if parent == 0 {
		if sibling = t.roots[slot]; sibling == 0 {
			cost += rootCharge
		}
	} else {
		sibling = binary.LittleEndian.Uint32(t.entry(parent))
	}
	if t.bytes+cost > t.budget {
		t.clear()
		return 0
	}
	t.bytes += cost
	if grow {
		t.chunks = append(t.chunks, make([]byte, 0, chunkSize))
		last++
	}
	c := t.chunks[last]
	id := uint32(last*chunkSize+len(c)) + 1
	if parent == 0 {
		if t.roots == nil {
			t.roots = make(map[uint64]uint32)
		}
		t.roots[slot] = id
	} else {
		binary.LittleEndian.PutUint32(t.entry(parent), id)
	}
	c = binary.LittleEndian.AppendUint32(c, 0)
	c = binary.AppendUvarint(c, uint64(sibling))
	c = binary.AppendUvarint(c, owner)
	c = binary.AppendUvarint(c, uint64(len(key)))
	c = append(c, key...)
	c = binary.AppendUvarint(c, uint64(len(val)))
	t.chunks[last] = append(c, val...)
	t.entries++
	return id
}

// clear drops every entry and owner and starts a new generation; the
// first sightings stay.
func (t *Table[K]) clear() {
	t.gen++
	t.roots, t.chunks, t.entries, t.bytes = nil, nil, 0, 0
	clear(t.owners)
}
