package mem

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
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
// The memo is a memo.Table, which owns admission, the arena, the budget and
// the reset: an entry's owner is the operation's trace, its key the rest of
// the operation. Most hierarchies never repeat (each run-cold request is a
// new seed), so a hierarchy is tracked only if the key of its first
// operation was sighted before; an untracked one pays that one check. When
// the table clears, tracked hierarchies notice the new generation at their
// next operation and go on untracked.

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
	// walkMemoBudget bounds the memo's charged bytes: the smallest quarter
	// MiB that holds a bench-scale Figure 7/8/9b sweep's entries, 110,250
	// of them charged 2,788,352 bytes (2.66 MiB).
	walkMemoBudget = 11 << 18
	// walkSeenBuckets shapes the first-sighting filter: 1024 × 8
	// fingerprints, 32 KiB.
	walkSeenBuckets = 1024
)

var walkMemo = memo.New[*trace.Trace](walkMemoBudget, walkSeenBuckets)

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
	entries, bytes := walkMemo.Stats()
	return MemoStats{Walks: walkCounts.walks.Load(), Hits: walkCounts.hits.Load(), Models: walkCounts.models.Load(),
		Bytes: bytes, Entries: entries}
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
	var sum uint64 // the hash of a first operation, which the memo finds it by
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
	if h.node == rootNode {
		sum = firstSum(h.key, t)
		walkMemo.Lock()
		seen := walkMemo.Sighted(sum)
		walkMemo.Unlock()
		if !seen {
			h.node = untracked
		}
	}
	if h.node != untracked && h.aud == nil {
		if id, out := h.lookup(t, sum); id > 0 {
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
		h.record(kind, t, sum)
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

// firstSum is the hash of a first operation with key on t, which its
// sighting and its root slot go by. It uses the trace's ID, as the trace's
// owner index lasts only until the memo clears.
func firstSum(key []byte, t *trace.Trace) uint64 {
	return memo.Hash(key) ^ uint64(traceID(t))*0x9e3779b97f4a7c15
}

// owner returns t's index among the memo's owners, interning it if intern
// is set; ok is false for a trace the memo does not hold. h's trace slots
// cache the index for the generation. Call with the memo locked.
func (h *Hierarchy) owner(t *trace.Trace, intern bool) (idx uint64, ok bool) {
	gen := walkMemo.Gen()
	var s *traceSlot
	if t != nil {
		if s = h.slot(t); s.tiGen == gen+1 {
			return s.ti, true
		}
	}
	if idx, ok = walkMemo.Owner(t, intern); ok && s != nil {
		s.ti, s.tiGen = idx, gen+1
	}
	return idx, ok
}

// current reports whether h's history is in the memo's current
// generation, and stops h tracking if not. Call with the memo locked.
func (h *Hierarchy) current() bool {
	if h.node != rootNode && h.gen != walkMemo.Gen() {
		h.node = untracked
		return false
	}
	return true
}

// lookup returns the entry that follows h's history with the operation in
// h.key on t, and the entry's recorded output, or id 0 if there is none.
// sum is the hash of a first operation.
func (h *Hierarchy) lookup(t *trace.Trace, sum uint64) (id int64, out []byte) {
	walkMemo.Lock()
	defer walkMemo.Unlock()
	if !h.current() {
		return 0, nil
	}
	ti, ok := h.owner(t, false)
	if !ok {
		return 0, nil
	}
	child, out := walkMemo.Find(uint32(h.node), ti, sum, h.key)
	if child == 0 {
		return 0, nil
	}
	h.gen = walkMemo.Gen()
	return int64(child), out
}

// record stores the output of a real operation as the entry that follows
// h's history and moves h there. Under Audit, an entry recorded already
// must hold the same output.
func (h *Hierarchy) record(kind opKind, t *trace.Trace, sum uint64) {
	out := h.out[:0]
	switch kind {
	case opWalk:
		out = appendLatRuns(out, h.lats)
	case opGates:
		out = memo.AppendIntRuns(out, h.gates)
	}
	out = appendCounts(out, &h.delta)
	out = binary.AppendUvarint(out, uint64(h.occ))
	h.out = out

	walkMemo.Lock()
	defer walkMemo.Unlock()
	if !h.current() {
		return
	}
	ti, _ := h.owner(t, true)
	id, old := walkMemo.Find(uint32(h.node), ti, sum, h.key)
	if id != 0 && string(old) != string(out) {
		where := h.audLabel
		if where == "" {
			where = "mem"
		}
		h.aud.Violatef("mem.walk_memo", where,
			"recorded output of op %d on trace %d differs from the cache model's", kind, traceID(t))
	}
	if id == 0 {
		if id = walkMemo.Add(uint32(h.node), ti, sum, h.key, out); id == 0 {
			h.node = untracked
			return
		}
	}
	h.node, h.gen = int64(id), walkMemo.Gen()
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
	r := memo.Reader(out)
	switch kind {
	case opWalk:
		decodeLatRuns(&r, h.lats)
	case opGates:
		r.IntRuns(h.gates)
	}
	mask := r.Uvarint()
	for i := range h.cnt {
		if mask&(1<<i) != 0 {
			h.cnt[i] += r.Uvarint()
		}
	}
	h.occ = int(r.Uvarint())
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

// decodeLatRuns fills lats from appendLatRuns' code.
func decodeLatRuns(r *memo.Reader, lats []int) {
	b := *r
	k := 0
	for ; len(lats) > 0; k++ {
		run := lats[:b[k]&31+1]
		v := latValues[b[k]>>5]
		for i := range run {
			run[i] = v
		}
		lats = lats[len(run):]
	}
	*r = b[k:]
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
