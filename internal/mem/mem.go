// Package mem models the memory system of Table 2: per-core 32 KB L1
// instruction and data caches (2-cycle), a 2 MB L2 with a stride prefetcher
// (15-cycle) and main memory (120-cycle), plus the address-stream walkers
// that drive them from trace stream specifications.
package mem

import (
	"slices"

	"repro/internal/cache"
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
type Hierarchy struct {
	L1I  *cache.Cache
	L1D  *cache.Cache
	L2   *cache.Cache
	ITLB *TLB
	DTLB *TLB
	pf   *cache.StridePrefetcher

	// Bus line transfers, L1<->L2 and L2<->memory.
	l1ToL2Lines, l2ToMemLines uint64

	// Scratch that LoadLatencies and FetchGates return slices of.
	ops   []memOp
	lats  []int
	gates []int
}

// NewHierarchy builds a hierarchy with the paper's default geometry.
func NewHierarchy() *Hierarchy {
	h := &Hierarchy{
		L1I:  cache.New(L1IConfig),
		L1D:  cache.New(L1DConfig),
		L2:   cache.New(L2Config),
		ITLB: NewTLB(),
		DTLB: NewTLB(),
	}
	h.pf = cache.NewStridePrefetcher(h.L2, 2)
	return h
}

// PublishTelemetry adds the hierarchy's cache, TLB and bus counters to the
// registry's counters under prefix (e.g. "core0.mem"), once per run on the
// simulating goroutine (see cache.PublishTelemetry). A nil registry is a
// no-op.
func (h *Hierarchy) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	h.L1I.PublishTelemetry(reg, prefix+".l1i")
	h.L1D.PublishTelemetry(reg, prefix+".l1d")
	h.L2.PublishTelemetry(reg, prefix+".l2")
	_, itlbMisses := h.ITLB.Stats()
	_, dtlbMisses := h.DTLB.Stats()
	reg.Counter(prefix + ".itlb.misses").Add(int64(itlbMisses))
	reg.Counter(prefix + ".dtlb.misses").Add(int64(dtlbMisses))
	reg.Counter(prefix + ".bus.l1_l2_lines").Add(int64(h.l1ToL2Lines))
	reg.Counter(prefix + ".bus.l2_mem_lines").Add(int64(h.l2ToMemLines))
}

// LoadLatency performs a data load at addr on behalf of streamID and returns
// its total latency in cycles, including any page-walk on a DTLB miss.
func (h *Hierarchy) LoadLatency(streamID uint8, addr uint64) int {
	walk := h.DTLB.Access(addr)
	if h.L1D.Access(addr) {
		return walk + L1Latency
	}
	h.l1ToL2Lines++
	h.pf.Observe(streamID, addr)
	if h.L2.Access(addr) {
		return walk + L1Latency + L2Latency
	}
	h.l2ToMemLines++
	return walk + L1Latency + L2Latency + MemLatency
}

// StoreAccess performs a data store. Stores retire through a store buffer,
// so they do not stall the pipeline on a miss; the call maintains cache,
// TLB and traffic state and returns the buffer-visible latency.
func (h *Hierarchy) StoreAccess(streamID uint8, addr uint64) int {
	h.DTLB.Access(addr) // translation happens even though the buffer hides it
	if !h.L1D.Access(addr) {
		h.l1ToL2Lines++
		h.pf.Observe(streamID, addr)
		if !h.L2.Access(addr) {
			h.l2ToMemLines++
		}
	}
	return 1
}

// FetchLatency models an instruction fetch of the line containing addr,
// including any page-walk on an ITLB miss.
func (h *Hierarchy) FetchLatency(addr uint64) int {
	walk := h.ITLB.Access(addr)
	if h.L1I.Access(addr) {
		return walk + L1Latency
	}
	h.l1ToL2Lines++
	if h.L2.Access(addr) {
		return walk + L1Latency + L2Latency
	}
	h.l2ToMemLines++
	return walk + L1Latency + L2Latency + MemLatency
}

// FetchStall returns the stall cycles one iteration of a trace's code pays
// at the fetch stage: the miss penalties (beyond the pipelined L1I hit) of
// fetching `codeBytes` of instructions starting at pc. Zero in steady state
// — the cost appears after migrations leave the L1I and ITLB cold.
func (h *Hierarchy) FetchStall(pc uint64, codeBytes int) int {
	stall := 0
	line := uint64(h.L1I.LineBytes())
	for off := uint64(0); off < uint64(codeBytes); off += line {
		if lat := h.FetchLatency(pc + off); lat > L1Latency {
			stall += lat - L1Latency
		}
	}
	return stall
}

// FetchGates returns the per-iteration instruction-fetch stall of iters
// back-to-back iterations of t: zero once its code lines are L1I/ITLB
// resident, the warmup misses otherwise (post-migration cost). The slice is
// the hierarchy's scratch, valid until the next FetchGates call on h.
func (h *Hierarchy) FetchGates(t *trace.Trace, iters int) []int {
	h.gates = slices.Grow(h.gates[:0], iters)[:iters]
	pc := uint64(t.ID) &^ 0x3f
	for it := range h.gates {
		h.gates[it] = h.FetchStall(pc, t.Len()*isa.InstBytes)
	}
	return h.gates
}

// memOp is one memory instruction of a trace with its walker resolved, so
// the per-iteration latency loop neither rescans non-memory instructions nor
// re-checks the stream bound per dynamic instruction.
type memOp struct {
	load   bool
	stream uint8
	w      *Walker // nil when the stream index is out of range
}

// LoadLatencies walks iters iterations of t's address streams through the
// hierarchy in program order and returns the per-dynamic-load latencies,
// with the dynamic load and store counts. walkers[i] supplies stream i; a
// memory instruction naming a missing stream costs an L1 hit and touches
// nothing. The latency slice is the hierarchy's scratch, valid until the
// next LoadLatencies call on h.
func (h *Hierarchy) LoadLatencies(t *trace.Trace, walkers []*Walker, iters int) (lats []int, nLoads, nStores int) {
	ops := h.ops[:0]
	loads := 0
	for _, in := range t.Insts {
		switch in.Op {
		case isa.Load, isa.Store:
			op := memOp{load: in.Op == isa.Load, stream: in.MemStream}
			if op.load {
				loads++
			}
			if int(in.MemStream) < len(walkers) {
				op.w = walkers[in.MemStream]
			}
			ops = append(ops, op)
		}
	}
	h.ops = ops
	if len(ops) == 0 {
		return nil, 0, 0
	}
	nLoads = loads * iters
	nStores = (len(ops) - loads) * iters
	lats = slices.Grow(h.lats[:0], nLoads)
	for it := 0; it < iters; it++ {
		for _, op := range ops {
			switch {
			case op.load && op.w != nil:
				lats = append(lats, h.LoadLatency(op.stream, op.w.Next()))
			case op.load:
				lats = append(lats, L1Latency)
			case op.w != nil:
				h.StoreAccess(op.stream, op.w.Next())
			}
		}
	}
	h.lats = lats
	return lats, nLoads, nStores
}

// FlushL1s empties both L1s, the TLBs and the prefetcher's learned strides;
// the cluster calls it when the application migrates to another core. The
// L2 is shared across the cluster, so it survives migration.
func (h *Hierarchy) FlushL1s() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.ITLB.Flush()
	h.DTLB.Flush()
	h.pf.Reset()
}

// Walker generates the address sequence of one trace memory stream. Each
// application instantiates one walker per (trace, stream) so that iteration
// N+1 continues where iteration N stopped — exactly how a loop walks an
// array or chases pointers.
type Walker struct {
	spec trace.StreamSpec
	pos  uint64
	rng  *xrand.Rand
}

// NewWalker builds a walker for spec with its own deterministic stream.
func NewWalker(spec trace.StreamSpec, rng *xrand.Rand) *Walker {
	if spec.WorkingSet == 0 {
		spec.WorkingSet = 64
	}
	return &Walker{spec: spec, rng: rng}
}

// Next returns the next address in the stream.
func (w *Walker) Next() uint64 {
	switch w.spec.Kind {
	case trace.StreamRandom:
		off := w.rng.Uint64() % w.spec.WorkingSet
		return w.spec.Base + (off &^ 7)
	default: // StreamStrided
		addr := w.spec.Base + w.pos
		w.pos += w.spec.Stride
		if w.pos >= w.spec.WorkingSet {
			w.pos = 0
		}
		return addr
	}
}
