package mem

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// The walk memo. A hierarchy's cache model is a pure function of the
// operations applied to it since NewHierarchy — walks, fetch-gate walks and
// L1 flushes — and a walker's position is one of the walks that used it,
// once a hierarchy adopts the walker unused. So the latencies, gates,
// counts and L1 occupancy an operation produces are a function of the
// hierarchy's history, the operation, its trace and its iteration count.
// The cluster repeats whole histories exactly: every run of one mix and
// seed, in every sweep of a process, walks the same path.
//
// The memo interns histories. Each entry is one history: its key is the
// entry of the history before it, the operation (kind, iterations, and per
// walker slot a reference to an adopted walker, or for a walker adopted
// here its spec and generator state) and the trace; it holds what the
// operation produced. Two hierarchies reach one entry exactly when their
// histories are equal, so a hit is exact: a hash only picks the slot of a
// first operation, and every hit compares the whole key byte for byte.
//
// A hit decodes the recorded latencies or gates into the hierarchy's
// scratch, adds the recorded counts and moves to the entry, touching
// neither the cache model nor the walkers. The model and the walkers catch
// up by replaying the answered operations the first time the hierarchy has
// to walk for real: on a miss, under Audit, or when a walker it adopted is
// used elsewhere. A run answered wholly from the memo never builds a model.
//
// The pipeline memo's rules apply. Most hierarchies never repeat (each
// run-cold request is a new seed), so a hierarchy is tracked only if the
// key of its first operation was sighted before, in a set-associative
// array of fingerprints; an untracked one pays that one check. Entries are
// appended, run-length coded, to an arena of fixed chunks whose keys and
// outputs are never rewritten, so a hit decodes outside the lock. The memo
// is cleared when an entry would overflow walkMemoBudget: tracked
// hierarchies notice the new generation at their next operation and go on
// untracked. pipeline.ResetMemo, and with it the pipeline memo's idle
// release, clears it too.

// opKind is an operation on a hierarchy.
type opKind byte

const (
	opWalk  opKind = 1 + iota // LoadLatencies
	opGates                   // FetchGates
	opFlush                   // FlushL1s
)

// Hierarchy.node values besides entry ids, which start at 1.
const (
	rootNode  = 0  // no operation applied yet
	untracked = -1 // tracking is off
)

// pendingOp is an operation the memo answered that the cache model has not
// applied yet. Its walkers are Hierarchy.pendWalkers from w0 to the next
// operation's w0.
type pendingOp struct {
	t     *trace.Trace
	iters int32
	w0    int32
	kind  opKind
}

// pendLists recycles the pending lists of released hierarchies: one
// answered wholly from the memo keeps a list as long as its run.
var pendLists sync.Pool

type pendList struct {
	ops     []pendingOp
	walkers []*Walker
}

const (
	// walkMemoBudget bounds the memo's bytes, and the memo is cleared when
	// an entry would overflow it.
	walkMemoBudget = 11 << 18
	// walkChunk is the arena's chunk size, and bounds an entry's length.
	walkChunk = 16 << 10
	// walkSeenBuckets and walkSeenWays shape the first-sighting array:
	// 1024 × 8 fingerprints, 32 KiB.
	walkSeenBuckets = 1024
	walkSeenWays    = 8
	// walkRootCharge is the charge for a slot of the root map.
	walkRootCharge = 32
)

// walkMemoState is the memo: a trie of histories. An entry is laid out in
// the arena as its first child's id (4 bytes, rewritten when a child is
// added), its next sibling's id (a varint), then its key and its output,
// each after its length; id 0 is none. A child's key is the operation
// alone: the parent is where the lookup starts. The children of the root,
// the first operations of every history, hang off roots by the hash of
// their key instead, siblings sharing a hash.
type walkMemoState struct {
	mu      sync.Mutex
	gen     uint64
	roots   map[uint64]uint32 // key hash -> first root child of that hash
	chunks  [][]byte          // entry id i is at byte i-1 of the chunks laid end to end
	traces  map[*trace.Trace]uint64
	entries int
	bytes   int // charged bytes: the chunks in use, and a slot per root
	seen    [walkSeenBuckets][walkSeenWays]uint32
}

var walkMemo walkMemoState

var walkCounts struct{ walks, hits, models atomic.Int64 }

// MemoStats are the walk memo's process totals.
type MemoStats struct {
	// Walks counts LoadLatencies calls with memory work and FetchGates
	// calls, Hits those the memo answered.
	Walks, Hits int64
	// Models counts the cache models hierarchies built, drawn from the
	// pool of released ones or newly allocated.
	Models int64
	// Bytes and Entries are the memo's current charged bytes and entries.
	Bytes, Entries int
}

// WalkMemoStats returns the walk memo's totals since the process started.
func WalkMemoStats() MemoStats {
	wm := &walkMemo
	wm.mu.Lock()
	defer wm.mu.Unlock()
	return MemoStats{Walks: walkCounts.walks.Load(), Hits: walkCounts.hits.Load(), Models: walkCounts.models.Load(),
		Bytes: wm.bytes, Entries: wm.entries}
}

// ResetWalkMemo empties the walk memo, first sightings included.
func ResetWalkMemo() {
	wm := &walkMemo
	wm.mu.Lock()
	defer wm.mu.Unlock()
	wm.clear()
	wm.traces = nil
	clear(wm.seen[:])
}

// apply applies one operation to h: from the walk memo when h's history
// has recorded it, else through the cache model, recording it when h is
// tracked. A walk's latencies land in h.lats, a gate walk's gates in
// h.gates; both are sized already.
func (h *Hierarchy) apply(kind opKind, t *trace.Trace, walkers []*Walker, iters int) {
	if h.released {
		panic("mem: Hierarchy used after Release")
	}
	if kind != opFlush {
		walkCounts.walks.Add(1)
	}
	if h.node != untracked {
		h.encodeKey(kind, walkers, iters)
	}
	for _, w := range walkers {
		if w != nil {
			if w.owner != h {
				w.disown()
			}
			w.used = true
		}
	}
	if h.node == rootNode && !sighted(h.key, t) {
		h.node = untracked
	}
	if h.node != untracked && h.aud == nil {
		if id, out := h.lookup(t); id > 0 {
			h.answer(kind, out)
			h.node = id
			if h.pending == nil {
				if l, ok := pendLists.Get().(*pendList); ok {
					h.pending, h.pendWalkers = l.ops, l.walkers
				}
			}
			h.pending = append(h.pending, pendingOp{t: t, iters: int32(iters), w0: int32(len(h.pendWalkers)), kind: kind})
			h.pendWalkers = append(h.pendWalkers, walkers...)
			if kind != opFlush {
				walkCounts.hits.Add(1)
			}
			return
		}
	}
	h.real(func(m *model) int {
		switch kind {
		case opWalk:
			h.ops = memOps(h.ops[:0], t, walkers)
			h.lats = m.walk(h.ops, iters, h.lats[:0])
		case opGates:
			m.fetchGates(t, h.gates)
		case opFlush:
			m.flushL1s()
		}
		return 0
	})
	if h.node != untracked {
		h.record(kind, t)
	}
}

// materialize catches the cache model up with h's history, building it
// first if h has none, and returns it.
func (h *Hierarchy) materialize() *model {
	if h.released {
		panic("mem: Hierarchy used after Release")
	}
	if h.m == nil {
		h.m = models.Get().(*model)
		walkCounts.models.Add(1)
	}
	for i, p := range h.pending {
		iters := int(p.iters)
		switch p.kind {
		case opWalk:
			ws := h.pendWalkers[p.w0:]
			if i+1 < len(h.pending) {
				ws = h.pendWalkers[p.w0:h.pending[i+1].w0]
			}
			h.ops = memOps(h.ops[:0], p.t, ws)
			h.replayLats = h.m.walk(h.ops, iters, h.replayLats[:0])
		case opGates:
			h.replayLats = slices.Grow(h.replayLats[:0], iters)[:iters]
			h.m.fetchGates(p.t, h.replayLats)
		case opFlush:
			h.m.flushL1s()
		}
	}
	clear(h.pending)
	clear(h.pendWalkers)
	h.pending, h.pendWalkers = h.pending[:0], h.pendWalkers[:0]
	return h.m
}

// detach catches h up and stops tracking its history: the walkers it
// adopted are about to move without it.
func (h *Hierarchy) detach() {
	if h.released {
		panic("mem: walker of a released Hierarchy used")
	}
	if len(h.pending) > 0 {
		h.materialize()
	}
	h.node = untracked
}

// encodeKey writes the operation's memo key, less its trace, into h.key:
// the kind, the iterations and, for a walk, a reference per walker slot —
// 0 for none, 1 and the walker's spec and generator state for a walker
// adopted here, 2+i for the i-th walker adopted before. A walker that has
// been used but not adopted by h turns tracking off.
func (h *Hierarchy) encodeKey(kind opKind, walkers []*Walker, iters int) {
	b := append(h.key[:0], byte(kind))
	b = binary.AppendVarint(b, int64(iters))
	if kind == opWalk {
		b = binary.AppendUvarint(b, uint64(len(walkers)))
		for _, w := range walkers {
			switch {
			case w == nil:
				b = append(b, 0)
			case w.owner == h:
				b = binary.AppendUvarint(b, w.idx+2)
			case w.owner == nil && !w.used:
				w.owner, w.idx = h, h.adopted
				h.adopted++
				b = append(b, 1, byte(w.spec.Kind))
				b = binary.AppendUvarint(b, w.spec.Base)
				b = binary.AppendUvarint(b, w.spec.Stride)
				b = binary.AppendUvarint(b, w.spec.WorkingSet)
				for _, s := range w.rng.State() {
					b = binary.LittleEndian.AppendUint64(b, s)
				}
			default:
				h.node = untracked
			}
		}
	}
	h.key = b
}

// sighted reports whether the fingerprint of a first operation's key is in
// its bucket of the first-sighting array, and puts it in at the front if
// not. A fingerprint shared by two keys can only track a hierarchy that
// will not repeat.
func sighted(key []byte, t *trace.Trace) bool {
	sum := keyHash(key) ^ uint64(traceID(t))*0x9e3779b97f4a7c15
	bucket, fp := int(sum%walkSeenBuckets), uint32(sum>>32)|1
	wm := &walkMemo
	wm.mu.Lock()
	defer wm.mu.Unlock()
	ways := &wm.seen[bucket]
	for _, w := range ways {
		if w == fp {
			return true
		}
	}
	copy(ways[1:], ways[:])
	ways[0] = fp
	return false
}

// keyHash is FNV-1a. It only picks root slots and fingerprints.
func keyHash(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// entry returns the bytes of entry id onwards. Call with the memo locked;
// the key and output bytes stay valid after unlocking, as they are never
// rewritten.
func (wm *walkMemoState) entry(id uint32) []byte {
	return wm.chunks[(id-1)/walkChunk][(id-1)%walkChunk:]
}

// parts splits an entry into its next sibling, key and output.
func parts(e []byte) (sibling uint32, key, out []byte) {
	sib, w := binary.Uvarint(e[4:])
	e = e[4+w:]
	n, w := binary.Uvarint(e)
	key, e = e[w:w+int(n)], e[w+int(n):]
	n, w = binary.Uvarint(e)
	return uint32(sib), key, e[w : w+int(n) : w+int(n)]
}

// find returns the child of parent whose key is key, or 0. Call with the
// memo locked.
func (wm *walkMemoState) find(parent int64, key []byte) uint32 {
	var id uint32
	if parent == rootNode {
		id = wm.roots[keyHash(key)]
	} else {
		id = binary.LittleEndian.Uint32(wm.entry(uint32(parent)))
	}
	for id != 0 {
		sibling, k, _ := parts(wm.entry(id))
		if string(k) == string(key) {
			return id
		}
		id = sibling
	}
	return 0
}

// key returns h.key with the trace's index appended, interning the trace
// if intern is set; ok is false for a trace the memo does not hold. Call
// with the memo locked.
func (wm *walkMemoState) key(h *Hierarchy, t *trace.Trace, intern bool) (key []byte, ok bool) {
	var s *traceSlot
	var ti uint64
	if t != nil {
		s = h.slot(t)
		ti, ok = s.ti, s.tiGen == wm.gen+1
	}
	if !ok {
		if ti, ok = wm.traces[t]; !ok {
			if !intern {
				return nil, false
			}
			if wm.traces == nil {
				wm.traces = make(map[*trace.Trace]uint64)
			}
			ti = uint64(len(wm.traces))
			wm.traces[t] = ti
		}
		if s != nil {
			s.ti, s.tiGen = ti, wm.gen+1
		}
	}
	n := len(h.key)
	h.key = binary.AppendUvarint(h.key, ti)
	key = h.key
	h.key = h.key[:n]
	return key, true
}

// current reports whether h's history is in the memo's current
// generation, and stops h tracking if not. Call with the memo locked.
func (wm *walkMemoState) current(h *Hierarchy) bool {
	if h.node != rootNode && h.gen != wm.gen {
		h.node = untracked
		return false
	}
	return true
}

// lookup returns the entry that follows h's history with the operation in
// h.key on t, and the entry's recorded output, or id 0 if there is none.
func (h *Hierarchy) lookup(t *trace.Trace) (id int64, out []byte) {
	wm := &walkMemo
	wm.mu.Lock()
	defer wm.mu.Unlock()
	if !wm.current(h) {
		return 0, nil
	}
	key, ok := wm.key(h, t, false)
	if !ok {
		return 0, nil
	}
	child := wm.find(h.node, key)
	if child == 0 {
		return 0, nil
	}
	_, _, out = parts(wm.entry(child))
	h.gen = wm.gen
	return int64(child), out
}

// clear drops every entry and starts a new generation. Call with the memo
// locked.
func (wm *walkMemoState) clear() {
	wm.gen++
	wm.roots, wm.chunks, wm.entries, wm.bytes = nil, nil, 0, 0
	clear(wm.traces)
}

// record stores the output of a real operation as the entry that follows
// h's history and moves h there. Under Audit, an entry recorded already
// must hold the same output.
func (h *Hierarchy) record(kind opKind, t *trace.Trace) {
	out := h.out[:0]
	switch kind {
	case opWalk:
		out = appendLatRuns(out, h.lats)
	case opGates:
		out = appendIntRuns(out, h.gates)
	}
	out = appendCounts(out, &h.delta)
	out = binary.AppendUvarint(out, uint64(h.occ))
	h.out = out

	wm := &walkMemo
	wm.mu.Lock()
	defer wm.mu.Unlock()
	if !wm.current(h) {
		return
	}
	key, _ := wm.key(h, t, true)
	if id := wm.find(h.node, key); id != 0 {
		if _, _, old := parts(wm.entry(id)); string(old) != string(out) {
			where := h.audLabel
			if where == "" {
				where = "mem"
			}
			h.aud.Violatef("mem.walk_memo", where,
				"recorded output of op %d on trace %d differs from the cache model's", kind, traceID(t))
		}
		h.node, h.gen = int64(id), wm.gen
		return
	}
	n := 4 + 3*binary.MaxVarintLen32 + len(key) + len(out)
	if n > walkChunk {
		h.node = untracked
		return
	}
	last := len(wm.chunks) - 1
	if last < 0 || len(wm.chunks[last])+n > walkChunk {
		if wm.bytes+walkChunk > walkMemoBudget {
			wm.clear()
			h.node = untracked
			return
		}
		wm.chunks = append(wm.chunks, make([]byte, 0, walkChunk))
		wm.bytes += walkChunk
		last++
	}
	c := wm.chunks[last]
	id := uint32(last*walkChunk+len(c)) + 1
	var sibling uint32
	if h.node == rootNode {
		sum := keyHash(key)
		sibling = wm.roots[sum]
		if wm.roots == nil {
			wm.roots = make(map[uint64]uint32)
		}
		if sibling == 0 {
			wm.bytes += walkRootCharge
		}
		wm.roots[sum] = id
	} else {
		head := wm.entry(uint32(h.node))[:4]
		sibling = binary.LittleEndian.Uint32(head)
		binary.LittleEndian.PutUint32(head, id)
	}
	c = binary.LittleEndian.AppendUint32(c, 0)
	c = binary.AppendUvarint(c, uint64(sibling))
	c = binary.AppendUvarint(c, uint64(len(key)))
	c = append(c, key...)
	c = binary.AppendUvarint(c, uint64(len(out)))
	wm.chunks[last] = append(c, out...)
	wm.entries++
	h.node, h.gen = int64(id), wm.gen
}

func traceID(t *trace.Trace) trace.ID {
	if t == nil {
		return 0
	}
	return t.ID
}

// answer applies a recorded output: the latencies or gates into h's
// scratch, the counts to h's, and the L1 occupancy.
func (h *Hierarchy) answer(kind opKind, out []byte) {
	switch kind {
	case opWalk:
		out = decodeLatRuns(out, h.lats)
	case opGates:
		out = decodeIntRuns(out, h.gates)
	}
	mask, w := binary.Uvarint(out)
	out = out[w:]
	for i := range h.cnt {
		if mask&(1<<i) != 0 {
			v, w := binary.Uvarint(out)
			out = out[w:]
			h.cnt[i] += v
		}
	}
	occ, _ := binary.Uvarint(out)
	h.occ = int(occ)
}

// latValues are the load latencies a walk can resolve: an L1, L2 or
// memory hit, each with or without a page walk.
var latValues = [...]int{
	L1Latency, L1Latency + L2Latency, L1Latency + L2Latency + MemLatency,
	PageWalkCost + L1Latency, PageWalkCost + L1Latency + L2Latency, PageWalkCost + L1Latency + L2Latency + MemLatency,
}

// appendLatRuns run-length codes load latencies a byte per run of up to
// 32: the index of its value in latValues in the top three bits, the run
// length less one in the low five.
func appendLatRuns(b []byte, lats []int) []byte {
	for i := 0; i < len(lats); {
		j := i + 1
		for j < len(lats) && j-i < 32 && lats[j] == lats[i] {
			j++
		}
		sym := slices.Index(latValues[:], lats[i])
		if sym < 0 {
			panic("mem: load latency outside latValues")
		}
		b = append(b, byte(sym<<5|(j-i-1)))
		i = j
	}
	return b
}

// decodeLatRuns fills lats from appendLatRuns' code and returns the rest.
func decodeLatRuns(b []byte, lats []int) []byte {
	k := 0
	for ; len(lats) > 0; k++ {
		run := lats[:b[k]&31+1]
		v := latValues[b[k]>>5]
		for i := range run {
			run[i] = v
		}
		lats = lats[len(run):]
	}
	return b[k:]
}

// appendIntRuns run-length codes vs as (value, run length) varint pairs.
// The decoder knows len(vs) from elsewhere.
func appendIntRuns(b []byte, vs []int) []byte {
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		b = binary.AppendVarint(b, int64(vs[i]))
		b = binary.AppendUvarint(b, uint64(j-i))
		i = j
	}
	return b
}

// decodeIntRuns fills vs from appendIntRuns' code and returns the rest.
func decodeIntRuns(b []byte, vs []int) []byte {
	for i := 0; i < len(vs); {
		v, w := binary.Varint(b)
		b = b[w:]
		run, w := binary.Uvarint(b)
		b = b[w:]
		for end := i + int(run); i < end; i++ {
			vs[i] = int(v)
		}
	}
	return b
}

// appendCounts codes c as a bit mask of its nonzero counts and then each
// of them.
func appendCounts(b []byte, c *counters) []byte {
	var mask uint64
	for i, v := range c {
		if v != 0 {
			mask |= 1 << i
		}
	}
	b = binary.AppendUvarint(b, mask)
	for _, v := range c {
		if v != 0 {
			b = binary.AppendUvarint(b, v)
		}
	}
	return b
}
