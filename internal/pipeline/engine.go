package pipeline

import (
	"math"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// maxCycle is the convergence guard: the in-order pass panics once the
// cycle it is about to issue in passes it, and placement once a cycle its
// stall sweep makes final does. maxLatency bounds every resolved load
// latency, maxInput every fetch gate and mispredict penalty, and maxWindow
// a Dataflow request's window (resolve rejects larger ones). Every cycle
// the engine computes then stays below 1<<31, which is what lets the
// per-dynamic state hold cycles in 32 bits: the in-order pass's lie within
// two inputs of the guard, and placement's within
// maxWindow*(maxLatency+1+2h) cycles of a stall sweep frontier that never
// passes it, h the longest unit hold, which also bounds placement's dense
// occupancy ring (DESIGN.md §9). The memory hierarchy's latencies are at
// most 157 cycles and its gates a few hundred; the cores' window is
// isa.ROBSize.
const (
	maxCycle   = 1 << 26
	maxLatency = 1 << 8
	maxInput   = 1 << 17
	maxWindow  = 1 << 9
)

// edyn is the per-dynamic-instruction state, in 32-bit fields so a run's
// state packs 20 bytes per instruction. Stored flat and reused across
// runs; each engine sets every field of an instruction as it issues it.
type edyn struct {
	lat      int32
	issued   int32 // cycle issued, -1 while a take-back has it unplaced
	complete int32
	static   int32 // index within the trace
	iter     int32
}

// estatic is one instruction's entry in a trace's per-static table, so
// the engines map no class to its pool or latency.
type estatic struct {
	op   isa.Class
	unit isa.FU
	hold int32 // cycles an unpipelined op holds its unit; 0 when pipelined
	lat  int32 // the class latency; each dynamic load takes its resolved one
	load int32 // the instruction's index among the trace's loads; -1 for any other class
}

// flatDeps is a DepGraph restated for the engines, built once per trace
// and memoized on the graph. srcs gives instruction j's two source
// operands, each as a distance back from j's slot in a table of
// completion cycles laid out by dynamic index after n zero slots, so a
// loop-carried source in iteration 0 reads a zero slot. A mask of 0 marks
// an operand with no producer. BuildDepGraph gives each source one
// producer, so an instruction with a third predecessor is a malformed
// graph.
//
// statics holds the per-static table of the trace last run over the graph
// (staticsOf).
type flatDeps struct {
	n       int
	srcs    []operandSrcs
	statics atomic.Pointer[staticTable]
}

// staticTable is a trace's per-static table over its dependence graph.
// Built once, it is only read, by every engine that runs the trace.
type staticTable struct {
	trace *trace.Trace
	insts []estatic
}

type operandSrcs struct {
	back [2]int32
	mask [2]int32
}

func flatDepsOf(g *trace.DepGraph) *flatDeps {
	return g.Derived(func() any { return buildFlatDeps(g) }).(*flatDeps)
}

func buildFlatDeps(g *trace.DepGraph) *flatDeps {
	n := len(g.Preds)
	fd := &flatDeps{n: n, srcs: make([]operandSrcs, n)}
	for j := range fd.srcs {
		preds, carried := g.Preds[j], g.CarriedPreds[j]
		if len(preds)+len(carried) > 2 {
			panic("pipeline: an instruction with more than two predecessors")
		}
		src := &fd.srcs[j]
		for k, p := range preds {
			src.back[k], src.mask[k] = int32(j-p), -1
		}
		for k, p := range carried {
			src.back[len(preds)+k], src.mask[len(preds)+k] = int32(j-p+n), -1
		}
	}
	return fd
}

// Engine holds the reusable simulation scratch: dynamic-instruction state,
// the completion table both engines read operands from, the in-order
// issue sequence and unit occupancy, placement's per-dynamic retire
// cycles and occupancy ring, the issue-order sort buffer, the request's
// resolved inputs, the key and entry encoding buffers of the process-wide
// result memo (memo.go), and the last Result. A steady-state Run allocates
// only when the memo's arena or index grows to store an entry, or the
// first time a trace runs, to build its per-static table; a memo hit
// allocates nothing. An Engine is not safe for concurrent use; each worker owns one.
type Engine struct {
	dyns     []edyn
	statics  []estatic // the request's per-static table, shared: read only
	iterGate []int32
	seq      []int32 // the in-order pass's issue sequence of dyns indexes
	fus      fuUnits
	orderBuf []int32 // extractProbe's per-cycle counts
	auditBuf []int32 // audit's per-cycle issue and claim counts

	// The request's callbacks, resolved once by resolve: per-dynamic-load
	// latencies in load order, loads per iteration, terminating-branch
	// outcomes and fetch gates by iteration.
	lats  []int
	loads int
	miss  []bool
	gates []int

	keyBuf  []byte
	entBuf  []byte
	memoHit bool

	// Age-order placement's retire cycles and occupancy ring (place.go),
	// and the completion cycles both engines read, in the layout
	// flatDeps.srcs reads.
	retire []int32
	comp   []int32
	occ    occRing

	// res is the last Run's Result; its IterEnd and IssueOrder are the
	// buffers the next Run fills.
	res Result

	// Run totals, published once by PublishTelemetry.
	measures, memoHits             int64
	measuredCycles                 int64
	stallData, stallFU, stallFetch int64
	// probes counts the Run calls that asked for the probe, memo hits
	// included. It is not published: tests read it to pin which callers
	// probe.
	probes int64
}

// NewEngine returns an engine with empty scratch; buffers grow to fit the
// largest request seen and are retained.
func NewEngine() *Engine { return &Engine{} }

// Run simulates the request on this engine's scratch storage. It panics on
// malformed requests (simulator-internal misuse, not user input). A request
// whose resolved inputs exactly repeat an earlier one on any engine of the
// process is answered from the shared memo (memo.go) without simulating.
// The Result's IterEnd and IssueOrder are the engine's buffers: they are
// valid until the engine's next Run, and a caller that keeps them longer
// clones them.
func (e *Engine) Run(req Request) Result {
	res := e.run(req, true)
	e.measures++
	if !req.NoProbe {
		e.probes++
	}
	if e.memoHit {
		e.memoHits++
	}
	e.measuredCycles += int64(res.Cycles)
	e.stallData += int64(res.StallDataCycles)
	e.stallFU += int64(res.StallFUCycles)
	e.stallFetch += int64(res.StallFetchCycles)
	return res
}

// PublishTelemetry adds this engine's Run totals to the registry's
// counters under prefix (e.g. "core0.ooo"): measures counts Run calls,
// memo_hits those answered from the process-wide memo without simulating,
// measured_cycles their cycles, and the stall_*_cycles counters break
// their issue stalls down by cause (operand not ready, functional unit
// busy, front end gated). Call it once, after the last Run and on the
// goroutine that made it. A nil registry is a no-op.
func (e *Engine) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix + ".measures").Add(e.measures)
	reg.Counter(prefix + ".memo_hits").Add(e.memoHits)
	reg.Counter(prefix + ".measured_cycles").Add(e.measuredCycles)
	reg.Counter(prefix + ".stall_data_cycles").Add(e.stallData)
	reg.Counter(prefix + ".stall_fu_cycles").Add(e.stallFU)
	reg.Counter(prefix + ".stall_fetch_cycles").Add(e.stallFetch)
}

// MemoHit reports whether the last Run was answered from the memo.
func (e *Engine) MemoHit() bool { return e.memoHit }

func (e *Engine) run(req Request, memoize bool) Result {
	e.memoHit = false
	t := req.Trace
	if t == nil || len(t.Insts) == 0 || req.Iterations <= 0 {
		return Result{}
	}
	n := len(t.Insts)
	if req.Width <= 0 {
		req.Width = isa.IssueWidth
	}
	if req.Policy == Dataflow && req.Window <= 0 {
		req.Window = isa.ROBSize
	}
	if req.ProbeSpan <= 0 {
		req.ProbeSpan = 1
	}
	if req.ProbeSpan > req.Iterations {
		req.ProbeSpan = req.Iterations
	}
	if req.Policy == RecordedOrder {
		if len(req.Order) != n*req.ProbeSpan {
			panic("pipeline: RecordedOrder requires a full probe-span order")
		}
		if req.Iterations%req.ProbeSpan != 0 {
			req.Iterations += req.ProbeSpan - req.Iterations%req.ProbeSpan
		}
	}

	e.resolve(&req)
	res := &e.res
	var sum uint64
	if memoize {
		sum = e.memoKeyOf(&req)
		if req.Audit == nil && e.recall(&req, sum, res) {
			e.memoHit = true
			memo.Touch()
			return *res
		}
	}

	fd := flatDepsOf(req.Deps)
	e.statics = fd.staticsOf(req.Trace).insts
	*res = Result{IterEnd: resize(res.IterEnd, req.Iterations), IssueOrder: res.IssueOrder[:0]}
	if req.Policy == Dataflow {
		e.runPlaced(&req, fd, res)
	} else {
		e.runInOrder(&req, fd, res)
	}
	// Both engines issue every instruction exactly once.
	res.Issued = len(e.dyns)
	for j := range e.statics {
		res.FUBusy[e.statics[j].unit] += uint64(req.Iterations)
	}
	e.finishRun(n, res)
	if !req.NoProbe {
		span := req.ProbeSpan
		probe := (req.Iterations / 2 / span) * span
		if probe+span > req.Iterations {
			probe = req.Iterations - span
		}
		e.extractProbe(probe*n, (probe+span)*n, res)
	}
	if req.Audit != nil {
		e.audit(&req, res)
	}
	if memoize {
		var prior Result
		switch {
		case req.Audit == nil || !e.recall(&req, sum, &prior):
			e.remember(&req, sum, res, false)
		case !e.auditMemo(&req, &prior, res):
			e.remember(&req, sum, res, true)
		}
		memo.Touch()
	}
	return *res
}

// resize returns s with length n, reusing its backing array when it fits
// and allocating exactly n otherwise. The elements' values are left
// unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resolve calls the request's callbacks into the engine's scratch, once per
// input in index order: LoadLatency for every dynamic load in program order
// (the order the lazy engine drew them in), Mispredicts for iterations
// 0..Iterations-2, FetchGate for every iteration. The simulation reads only
// the resolved inputs, so they are all a memo key must capture. A latency
// outside [1, maxLatency], a fetch gate or mispredict penalty outside
// [0, maxInput], or a Dataflow window past maxWindow is a malformed request.
func (e *Engine) resolve(req *Request) {
	if req.MispredictPenalty < 0 || req.MispredictPenalty > maxInput {
		panic("pipeline: mispredict penalty out of range")
	}
	if req.Policy == Dataflow && req.Window > maxWindow {
		panic("pipeline: window out of range")
	}
	iters := req.Iterations
	e.loads, _ = req.Trace.NumMemOps()
	e.lats = resize(e.lats, e.loads*iters)
	for k := range e.lats {
		lat := isa.Latency[isa.Load]
		if req.LoadLatency != nil {
			lat = req.LoadLatency(k)
		}
		if lat < 1 || lat > maxLatency {
			panic("pipeline: load latency out of range")
		}
		e.lats[k] = lat
	}
	e.miss = e.miss[:0]
	for it := 0; it+1 < iters; it++ {
		e.miss = append(e.miss, req.Mispredicts != nil && req.Mispredicts(it))
	}
	e.gates = e.gates[:0]
	if req.FetchGate != nil {
		for it := 0; it < iters; it++ {
			g := req.FetchGate(it)
			if g < 0 || g > maxInput {
				panic("pipeline: fetch gate out of range")
			}
			e.gates = append(e.gates, g)
		}
	}
}

// latency returns the latency of static instruction st's dynamic instance
// in iteration it: its resolved latency for a load, the class latency
// otherwise.
func (e *Engine) latency(st *estatic, it int) int32 {
	if st.load < 0 {
		return st.lat
	}
	return int32(e.lats[it*e.loads+int(st.load)])
}

// redirect returns the cycle from which the front end may fetch iteration
// it+1, once iteration it's terminating branch issues at now and completes
// at complete: the mispredict penalty after completion when the branch
// mispredicts, and no earlier than the next iteration's fetch gate past
// now. Iteration it's branch takes outcome it, whatever order the branches
// resolve in.
func (e *Engine) redirect(req *Request, it int, now, complete int32) int32 {
	gate := int32(0)
	if e.miss[it] {
		gate = complete + int32(req.MispredictPenalty)
	}
	if len(e.gates) > 0 {
		gate = max(gate, now+int32(e.gates[it+1]))
	}
	return gate
}

// staticsOf returns t's per-static table over the graph, building it the
// first time t runs over it. The simulator runs a graph only with the
// trace it was built from; a request that pairs it with another trace
// rebuilds the table. Concurrent first runs may each build one; they are
// equal, and one stays.
func (fd *flatDeps) staticsOf(t *trace.Trace) *staticTable {
	if tab := fd.statics.Load(); tab != nil && tab.trace == t {
		return tab
	}
	tab := &staticTable{trace: t, insts: make([]estatic, fd.n)}
	loads := int32(0)
	for j, in := range t.Insts {
		st := estatic{op: in.Op, unit: isa.UnitFor(in.Op), lat: int32(isa.Latency[in.Op]), load: -1}
		if !isa.Pipelined[in.Op] {
			st.hold = st.lat
		}
		if in.Op == isa.Load {
			st.load = loads
			loads++
		}
		tab.insts[j] = st
	}
	fd.statics.Store(tab)
	return tab
}

// maxUnits is the size of the largest functional-unit pool (isa.FUCount).
const maxUnits = 2

// unissued marks the completion slot of an instruction not yet issued in
// a run whose sequence may reach a consumer before its producer: no cycle
// the engine computes reaches it.
const unissued = math.MaxInt32

// fuUnits holds, for each unit of each pool, the first cycle it accepts an
// operation. The in-order pass claims units in non-decreasing cycles, so a
// pipelined op takes its unit until the next cycle, and an unpipelined op
// (a divide) for its latency: the reference engine's claim rule.
type fuUnits [isa.NumFUs][maxUnits]int32

// free returns the first cycle at or after now at which a unit of pool u
// accepts an operation.
func (f *fuUnits) free(u isa.FU, now int32) int32 {
	m := f[u][0]
	for _, b := range f[u][1:isa.FUCount[u]] {
		m = min(m, b)
	}
	return max(now, m)
}

// claim takes a unit of pool u that is free at cycle now, for hold cycles
// when hold > 0.
func (f *fuUnits) claim(u isa.FU, hold, now int32) {
	for i := range isa.FUCount[u] {
		if f[u][i] <= now {
			f[u][i] = now + max(hold, 1)
			return
		}
	}
}

// runInOrder issues along the request's sequence, stall-on-use, in one
// pass: an instruction issues in the cycle of the one before it if that
// cycle has a width slot left, its operands are complete and a unit of its
// pool is free, and otherwise in the first later cycle at or after the
// fetch gate, its operands' completion and a free unit. It reads operands
// from the completion table placement fills, and charges the cycles it
// passes over as the cycle-stepped loop did: those before the gate to
// fetch stalls, those before the operands complete to data stalls and one
// stall event, and those before a unit frees to FU stalls and one stall
// event each.
func (e *Engine) runInOrder(req *Request, fd *flatDeps, res *Result) {
	n := fd.n
	total := n * req.Iterations
	statics, srcs := e.statics, fd.srcs
	e.dyns = resize(e.dyns, total)
	e.comp = resize(e.comp, n+total)
	dyns, comp := e.dyns, e.comp
	clear(comp[:n])

	// Dynamic issue sequence: program order, or the recorded pattern
	// repeated per span group. A recorded order may name a consumer before
	// its producer, so its run marks every completion slot unissued first.
	seq := resize(e.seq, total)
	if req.Policy == RecordedOrder {
		k := 0
		for base := 0; base < total; base += len(req.Order) {
			for _, pos := range req.Order {
				seq[k] = int32(base + int(pos))
				k++
			}
		}
		for k := n; k < len(comp); k++ {
			comp[k] = unissued
		}
	} else {
		for i := range seq {
			seq[i] = int32(i)
		}
	}
	e.seq = seq

	fus := &e.fus
	*fus = fuUnits{}
	gate := int32(0)
	if len(e.gates) > 0 {
		gate = int32(e.gates[0])
	}
	width := int32(req.Width)
	cycle, slots := int32(-1), int32(0) // the last issue's cycle and the width it has left
	for _, idx := range seq {
		j, it := int(idx)%n, int(idx)/n
		st, k := &statics[j], int32(n)+idx
		ops := operands(comp, &srcs[j], k)
		if ops == unissued {
			panic("pipeline: in-order issue saw unissued predecessor")
		}
		if slots == 0 || ops > cycle || fus.free(st.unit, cycle) > cycle {
			c := cycle + 1
			if c < gate {
				res.StallFetchCycles += int(gate - c)
				c = gate
			}
			if ops > c {
				res.LoadStallCycles++
				res.StallDataCycles += int(ops - c)
				c = ops
			}
			if f := fus.free(st.unit, c); f > c {
				res.LoadStallCycles += int(f - c)
				res.StallFUCycles += int(f - c)
				c = f
			}
			if c > maxCycle {
				panic("pipeline: in-order simulation did not converge")
			}
			cycle, slots = c, width
		}
		fus.claim(st.unit, st.hold, cycle)
		slots--
		lat := e.latency(st, it)
		dyns[idx] = edyn{lat: lat, issued: cycle, complete: cycle + lat, static: int32(j), iter: int32(it)}
		comp[k] = cycle + lat
		if j == n-1 && it+1 < req.Iterations {
			gate = max(gate, e.redirect(req, it, cycle, cycle+lat))
		}
	}
}

// finishRun derives Cycles and the per-iteration completion times from the
// final dynamic state: IterEnd reflects the completion of every instruction
// in the iteration, not just the terminating branch.
func (e *Engine) finishRun(n int, res *Result) {
	res.Cycles = 0
	for it := range res.IterEnd {
		end := int32(0)
		for _, d := range e.dyns[it*n : (it+1)*n] {
			end = max(end, d.complete)
		}
		res.IterEnd[it] = int(end)
		res.Cycles = max(res.Cycles, int(end))
	}
}

// extractProbe derives the issue order and reorder count of one probe block
// (ProbeSpan iterations, dyns[lo:hi]). Block positions are it*n+j for
// instruction j of the block's it-th iteration. The order is by (issue
// cycle, block position): a counting sort over the block's issue cycles,
// placing positions in increasing order within each cycle.
func (e *Engine) extractProbe(lo, hi int, res *Result) {
	block := e.dyns[lo:hi]
	first, last := block[0].issued, block[0].issued
	for i := range block {
		first = min(first, block[i].issued)
		last = max(last, block[i].issued)
	}
	// next[c] is where the next position issued in cycle first+c goes:
	// count each cycle's positions one slot up, then sum the counts.
	next := resize(e.orderBuf, int(last-first)+2)
	clear(next)
	for i := range block {
		next[block[i].issued-first+1]++
	}
	for c := 1; c < len(next); c++ {
		next[c] += next[c-1]
	}
	e.orderBuf = next
	res.IssueOrder = resize(res.IssueOrder, len(block))
	for i := range block {
		c := block[i].issued - first
		res.IssueOrder[next[c]] = uint16(i)
		next[c]++
	}
	maxSeen := -1
	for _, idx := range res.IssueOrder {
		if int(idx) < maxSeen {
			res.Reordered++
		}
		maxSeen = max(maxSeen, int(idx))
	}
}
