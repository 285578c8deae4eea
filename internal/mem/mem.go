// Package mem models the memory system of Table 2: per-core 32 KB L1
// instruction and data caches (2-cycle), a 2 MB L2 with a stride prefetcher
// (15-cycle) and main memory (120-cycle), plus the address-stream walkers
// that drive them from trace stream specifications.
package mem

import (
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Latencies per Table 2 of the paper.
const (
	L1Latency  = 2
	L2Latency  = 15
	MemLatency = 120
)

// Default cache geometries per Table 2.
var (
	L1IConfig = cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4}
	L1DConfig = cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4}
	L2Config  = cache.Config{Name: "L2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 8}
)

// Hierarchy is one application's view of the memory system: private L1s and
// a private 2 MB L2 slice ("2 MB per benchmark" per Section 4.2).
//
// What a hierarchy returns is a pure function of the operations applied to
// it since NewHierarchy (walks, fetch-gate walks and FlushL1s) and of the
// walkers those walks use, so the process-wide walk memo (walkmemo.go) can
// answer an exact repeat of a walk without the cache model. The model then
// lags behind: the answered operations wait in pending and are replayed the
// first time the hierarchy has to walk for real. The counters and the L1
// occupancy are current either way.
type Hierarchy struct {
	m *model // nil until the first real walk

	pending     []pendingOp
	pendWalkers []*Walker // the walkers of pending walks, back to back

	cnt counters // every applied operation's counts
	occ int      // valid L1I and L1D lines after the last operation

	traces [8]traceSlot // recent traces, by ID

	// Walk-memo tracking: node is the memo entry of the history so far
	// (rootNode before the first operation, untracked once tracking is
	// off), from memo generation gen; adopted counts the adopted walkers.
	node     int64
	gen      uint64
	adopted  uint64
	released bool

	aud      *invariant.Auditor
	audLabel string

	// Scratch: LoadLatencies and FetchGates return slices of lats and
	// gates; ops holds a real walk's memory operations, key and out the
	// current operation's memo key and entry, delta its counts; replayLats
	// serves pending replays, which must not touch the slices returned.
	ops        []memOp
	lats       []int
	gates      []int
	key, out   []byte
	delta      counters
	replayLats []int
}

// NewHierarchy builds a hierarchy with the paper's default geometry. Its
// cache model is built on first use.
func NewHierarchy() *Hierarchy { return &Hierarchy{} }

// AttachAudit puts the hierarchy's walk memo under the invariant auditor
// (DESIGN.md §11): it never answers a walk, and a recorded walk that
// differs from the real one is a mem.walk_memo violation located by label.
// Nil detaches — the default.
func (h *Hierarchy) AttachAudit(a *invariant.Auditor, label string) {
	h.aud = a
	h.audLabel = label
}

// model is the cache model behind a hierarchy: its caches, TLBs,
// prefetcher and bus line counts, and per stream ID the walk's hints.
type model struct {
	l1i, l1d, l2 *cache.Cache
	itlb, dtlb   TLB
	pf           *cache.StridePrefetcher

	// Bus line transfers, L1<->L2 and L2<->memory.
	l1ToL2Lines, l2ToMemLines uint64

	hints [256]streamHint
}

// streamHint is the L1D way and DTLB slot a stream's last walked access
// used. A strided stream stays in one line for several accesses, so the
// walk checks the hint before it searches; a verified hint is the hit the
// search would find, and a stale one costs only the search.
type streamHint struct {
	way  uint32
	slot uint8
}

// models recycles the cache models of released hierarchies, so the apps of
// successive cluster runs share one set of arrays instead of each
// allocating a 2 MB L2's 544 KiB.
var models = sync.Pool{New: func() any {
	m := &model{
		l1i: cache.New(L1IConfig),
		l1d: cache.New(L1DConfig),
		l2:  cache.New(L2Config),
	}
	m.pf = cache.NewStridePrefetcher(m.l2, 2)
	return m
}}

// counters are a hierarchy's published counts: each cache's accesses,
// misses, evictions, prefetches and prefetch hits, each TLB's misses, and
// the bus line transfers.
type counters [numCounters]uint64

const numCounters = 3*5 + 2 + 2

var counterNames = [numCounters]string{
	".l1i.accesses", ".l1i.misses", ".l1i.evictions", ".l1i.prefetches", ".l1i.prefetch_hits",
	".l1d.accesses", ".l1d.misses", ".l1d.evictions", ".l1d.prefetches", ".l1d.prefetch_hits",
	".l2.accesses", ".l2.misses", ".l2.evictions", ".l2.prefetches", ".l2.prefetch_hits",
	".itlb.misses", ".dtlb.misses",
	".bus.l1_l2_lines", ".bus.l2_mem_lines",
}

// read stores the model's counts in c.
func (m *model) read(c *counters) {
	for i, cc := range [...]*cache.Cache{m.l1i, m.l1d, m.l2} {
		s := cc.Stats()
		c[5*i], c[5*i+1], c[5*i+2], c[5*i+3], c[5*i+4] = s.Accesses, s.Misses, s.Evictions, s.Prefetches, s.PrefetchHits
	}
	_, c[15] = m.itlb.Stats()
	_, c[16] = m.dtlb.Stats()
	c[17], c[18] = m.l1ToL2Lines, m.l2ToMemLines
}

// occupancy returns the valid lines of both L1s.
func (m *model) occupancy() int { return m.l1d.Occupancy() + m.l1i.Occupancy() }

// PublishTelemetry adds the hierarchy's cache, TLB and bus counters to the
// registry's counters under prefix (e.g. "core0.mem"), once per run on the
// simulating goroutine. A nil registry is a no-op.
func (h *Hierarchy) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	for i, name := range counterNames {
		reg.Counter(prefix + name).Add(int64(h.cnt[i]))
	}
}

// L1Occupancy returns the number of valid L1I and L1D lines.
func (h *Hierarchy) L1Occupancy() int { return h.occ }

// Release returns the hierarchy's cache model for reuse by later
// hierarchies. The hierarchy, and any walker it adopted, must not be used
// afterwards; its counters stay readable.
func (h *Hierarchy) Release() {
	if h.m != nil {
		h.m.reset()
		models.Put(h.m)
	}
	if cap(h.pending) > 0 {
		clear(h.pending)
		clear(h.pendWalkers)
		pendLists.Put(&pendList{h.pending[:0], h.pendWalkers[:0]})
	}
	*h = Hierarchy{cnt: h.cnt, occ: h.occ, node: untracked, released: true}
}

// reset empties the model as New built it.
func (m *model) reset() {
	m.l1i.Reset()
	m.l1d.Reset()
	m.l2.Reset()
	m.itlb = TLB{}
	m.dtlb = TLB{}
	m.pf.Reset()
	m.l1ToL2Lines, m.l2ToMemLines = 0, 0
	m.hints = [256]streamHint{}
}

// access applies one single access outside the walk memo, which records
// whole walks only: the hierarchy catches up and stops tracking.
func (h *Hierarchy) access(f func(m *model) int) int {
	h.detach()
	return h.real(f)
}

// real applies f to the caught-up cache model, adding its counts to the
// hierarchy's and to h.delta.
func (h *Hierarchy) real(f func(m *model) int) int {
	m := h.materialize()
	var before counters
	m.read(&before)
	v := f(m)
	m.read(&h.delta)
	for i := range h.delta {
		h.delta[i] -= before[i]
		h.cnt[i] += h.delta[i]
	}
	h.occ = m.occupancy()
	return v
}

// LoadLatency performs a data load at addr on behalf of streamID and returns
// its total latency in cycles, including any page-walk on a DTLB miss. It
// and the other single-access methods stay unhinted, searching every
// structure, and serve as the oracle of the hinted walk
// (TestWalkMatchesSingleAccess).
func (h *Hierarchy) LoadLatency(streamID uint8, addr uint64) int {
	return h.access(func(m *model) int { return m.loadLatency(streamID, addr) })
}

// StoreAccess performs a data store and returns the buffer-visible latency
// (see model.storeAccess). It stays unhinted, as LoadLatency does.
func (h *Hierarchy) StoreAccess(streamID uint8, addr uint64) int {
	return h.access(func(m *model) int { return m.storeAccess(streamID, addr) })
}

// FetchStall returns the stall cycles one iteration of a trace's code pays
// at the fetch stage: the miss penalties (beyond the pipelined L1I hit) of
// fetching `codeBytes` of instructions starting at pc. Zero in steady state
// — the cost appears after migrations leave the L1I and ITLB cold. It walks
// one iteration in full, without fetchGates' repeat rule, and serves as
// the oracle of FetchGates as LoadLatency does of LoadLatencies.
func (h *Hierarchy) FetchStall(pc uint64, codeBytes int) int {
	return h.access(func(m *model) int { return m.fetchStall(pc, codeBytes) })
}

func (m *model) loadLatency(streamID uint8, addr uint64) int {
	walk := m.dtlb.Access(addr)
	if m.l1d.Access(addr) {
		return walk + L1Latency
	}
	return walk + L1Latency + m.l1dMiss(streamID, addr)
}

// l1dMiss serves an L1D miss from the L2 or memory, training the
// prefetcher, and returns the latency it adds to the L1's.
func (m *model) l1dMiss(streamID uint8, addr uint64) int {
	m.l1ToL2Lines++
	m.pf.Observe(streamID, addr)
	if m.l2.Access(addr) {
		return L2Latency
	}
	m.l2ToMemLines++
	return L2Latency + MemLatency
}

// storeAccess performs a data store. Stores retire through a store buffer,
// so they do not stall the pipeline on a miss; the call changes cache,
// TLB and traffic state as a load does (translation happens even though
// the buffer hides it) and returns the buffer-visible latency.
func (m *model) storeAccess(streamID uint8, addr uint64) int {
	m.loadLatency(streamID, addr)
	return 1
}

func (m *model) fetchLatency(addr uint64) int {
	walk := m.itlb.Access(addr)
	if m.l1i.Access(addr) {
		return walk + L1Latency
	}
	m.l1ToL2Lines++
	if m.l2.Access(addr) {
		return walk + L1Latency + L2Latency
	}
	m.l2ToMemLines++
	return walk + L1Latency + L2Latency + MemLatency
}

func (m *model) fetchStall(pc uint64, codeBytes int) int {
	stall := 0
	line := uint64(m.l1i.LineBytes())
	for off := uint64(0); off < uint64(codeBytes); off += line {
		if lat := m.fetchLatency(pc + off); lat > L1Latency {
			stall += lat - L1Latency
		}
	}
	return stall
}

// fetchGates fills gates with the fetch stall of each of len(gates)
// back-to-back iterations of t's code.
//
// An iteration that stalls 0 cycles hit the ITLB and the L1I on every
// line and filled nothing, so every later iteration hits the same lines
// and pages in the same order. fetchGates counts the middle ones' hits in
// one step and walks the last one for real, which stamps every line and
// page with the last use the full loop would leave.
func (m *model) fetchGates(t *trace.Trace, gates []int) {
	pc := uint64(t.ID) &^ 0x3f
	code := t.Len() * isa.InstBytes
	line := m.l1i.LineBytes()
	for it := 0; it < len(gates); it++ {
		gates[it] = m.fetchStall(pc, code)
		if gates[it] == 0 && it+2 < len(gates) {
			skip := len(gates) - it - 2
			clear(gates[it+1 : it+1+skip])
			hits := uint64(skip) * uint64((code+line-1)/line)
			m.itlb.skipHits(hits)
			m.l1i.SkipHits(hits)
			it += skip
		}
	}
}

// FetchGates returns the per-iteration instruction-fetch stall of iters
// back-to-back iterations of t: zero once its code lines are L1I/ITLB
// resident, the warmup misses otherwise (post-migration cost). The slice is
// the hierarchy's scratch, valid until the next FetchGates call on h.
func (h *Hierarchy) FetchGates(t *trace.Trace, iters int) []int {
	h.gates = slices.Grow(h.gates[:0], iters)[:iters]
	h.apply(opGates, t, nil, iters)
	return h.gates
}

// traceSlot is what a hierarchy keeps of a recent trace: its owner index
// in the walk memo, valid while the memo's generation is tiGen-1. Traces
// are immutable, as for the pipeline memo.
type traceSlot struct {
	t         *trace.Trace
	ti, tiGen uint64
}

// slot returns t's slot, filling it if it holds another trace. The loops
// of a phase have consecutive IDs, so they do not evict each other.
func (h *Hierarchy) slot(t *trace.Trace) *traceSlot {
	s := &h.traces[uint64(t.ID)%uint64(len(h.traces))]
	if s.t != t {
		*s = traceSlot{t: t}
	}
	return s
}

// memOp is one memory instruction of a trace with its walker resolved, so
// the per-iteration latency loop neither rescans non-memory instructions nor
// re-checks the stream bound per dynamic instruction.
type memOp struct {
	load   bool
	stream uint8
	w      *Walker // nil when the stream index is out of range
}

// memOps appends t's memory operations, with walkers resolved, to ops.
func memOps(ops []memOp, t *trace.Trace, walkers []*Walker) []memOp {
	for _, in := range t.Insts {
		switch in.Op {
		case isa.Load, isa.Store:
			op := memOp{load: in.Op == isa.Load, stream: in.MemStream}
			if int(in.MemStream) < len(walkers) {
				op.w = walkers[in.MemStream]
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// walk applies iters iterations of ops in program order, appending each
// load's latency to lats. Per operation it is Walker.Next's draw, written
// out so the strided step inlines, then loadLatency or storeAccess with
// the stream's hints checked first: a verified DTLB slot and L1D way count
// the hit in line, and only a stale hint pays the search, which refreshes
// it.
func (m *model) walk(ops []memOp, iters int, lats []int) []int {
	for it := 0; it < iters; it++ {
		for _, op := range ops {
			if op.w == nil {
				if op.load {
					lats = append(lats, L1Latency)
				}
				continue
			}
			var addr uint64
			if op.w.spec.Kind == trace.StreamRandom {
				addr = op.w.nextRandom()
			} else {
				addr = op.w.nextStrided()
			}
			h := &m.hints[op.stream]
			lat := L1Latency
			if !m.dtlb.hitSlot(addr, h.slot) {
				var walk int
				walk, h.slot = m.dtlb.access(addr)
				lat += walk
			}
			if !m.l1d.HitWay(addr, h.way) {
				var hit bool
				if hit, h.way = m.l1d.AccessWay(addr); !hit {
					lat += m.l1dMiss(op.stream, addr)
				}
			}
			if op.load {
				lats = append(lats, lat)
			}
		}
	}
	return lats
}

// LoadLatencies walks iters iterations of t's address streams through the
// hierarchy in program order and returns the per-dynamic-load latencies,
// with the dynamic load and store counts. walkers[i] supplies stream i; a
// memory instruction naming a missing stream costs an L1 hit and touches
// nothing. The latency slice is the hierarchy's scratch, valid until the
// next LoadLatencies call on h.
func (h *Hierarchy) LoadLatencies(t *trace.Trace, walkers []*Walker, iters int) (lats []int, nLoads, nStores int) {
	loads, stores := t.NumMemOps()
	if loads+stores == 0 {
		return nil, 0, 0
	}
	nLoads, nStores = loads*iters, stores*iters
	h.lats = slices.Grow(h.lats[:0], nLoads)[:nLoads]
	h.apply(opWalk, t, walkers, iters)
	return h.lats, nLoads, nStores
}

// FlushL1s empties both L1s, the TLBs and the prefetcher's learned strides;
// the cluster calls it when the application migrates to another core. The
// L2 is shared across the cluster, so it survives migration.
func (h *Hierarchy) FlushL1s() {
	h.apply(opFlush, nil, nil, 0)
}

func (m *model) flushL1s() {
	m.l1i.Flush()
	m.l1d.Flush()
	m.itlb.Flush()
	m.dtlb.Flush()
	m.pf.Reset()
}

// Walker generates the address sequence of one trace memory stream. Each
// application instantiates one walker per (trace, stream) so that iteration
// N+1 continues where iteration N stopped — exactly how a loop walks an
// array or chases pointers.
type Walker struct {
	spec trace.StreamSpec
	pos  uint64
	rng  xrand.Rand

	// used is set once a walk has used the walker. owner is the hierarchy
	// that adopted it unused, whose walk-memo history then implies its
	// position (it may lag behind, like the owner's cache model), and idx
	// its adoption index there.
	used  bool
	owner *Hierarchy
	idx   uint64
}

// NewWalker builds a walker for spec with its own deterministic stream: a
// copy of rng, which the caller's later draws do not disturb.
func NewWalker(spec trace.StreamSpec, rng *xrand.Rand) *Walker {
	if spec.WorkingSet == 0 {
		spec.WorkingSet = 64
	}
	return &Walker{spec: spec, rng: *rng}
}

// Next returns the next address in the stream. A walker advanced outside
// the walks of its owner takes it off the walk memo.
func (w *Walker) Next() uint64 {
	w.disown()
	w.used = true
	if w.spec.Kind == trace.StreamRandom {
		return w.nextRandom()
	}
	return w.nextStrided()
}

// disown catches the walker's owner up, which puts the walker's position
// right, and stops the owner tracking its history.
func (w *Walker) disown() {
	if o := w.owner; o != nil {
		w.owner = nil
		o.detach()
	}
}

// nextStrided steps a strided stream. It fits the inliner's budget; a
// draw that also called nextRandom would not.
func (w *Walker) nextStrided() uint64 {
	addr := w.spec.Base + w.pos
	w.pos += w.spec.Stride
	if w.pos >= w.spec.WorkingSet {
		w.pos = 0
	}
	return addr
}

// nextRandom draws a random stream's next address. A power-of-two working
// set reduces with a mask, which gives the value % gives.
func (w *Walker) nextRandom() uint64 {
	r, ws := w.rng.Uint64(), w.spec.WorkingSet
	if ws&(ws-1) == 0 {
		r &= ws - 1
	} else {
		r %= ws
	}
	return w.spec.Base + (r &^ 7)
}
