package pipeline

import (
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// maxCycle is the convergence guard: the in-order loop panics once the
// cycle it is about to issue in passes it, and placement once a cycle its
// stall sweep makes final does. maxLatency bounds every resolved load
// latency, maxInput every fetch gate and mispredict penalty, and maxWindow
// a Dataflow request's window (resolve rejects larger ones). Every cycle
// the engine computes then stays below 1<<31, which is what lets the
// per-dynamic state hold cycles in 32 bits: the in-order loop's lie within
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
// state packs 28 bytes per instruction. Stored flat and reused across
// runs; every field is (re)initialized by prepare, and runPlaced, which
// needs no prepare, sets all but readyAt and npred.
type edyn struct {
	lat      int32
	issued   int32 // cycle issued, -1 before
	complete int32
	readyAt  int32 // running max of completes over *issued* predecessors
	npred    int32 // predecessors not yet issued (counted with multiplicity)
	static   int32 // index within the trace
	iter     int32
}

// estatic is one instruction's entry in a trace's per-static table, so
// neither prepare nor the engines map a class to its pool or latency.
type estatic struct {
	op      isa.Class
	unit    isa.FU
	hold    int32 // cycles an unpipelined op holds its unit; 0 when pipelined
	lat     int32 // the class latency; each dynamic load takes its resolved one
	npred   int32 // intra-iteration predecessors
	carried int32 // loop-carried predecessors, from iteration 1 on
}

// flatDeps is the CSR (compressed sparse row) flattening of a DepGraph:
// predecessor and successor adjacency in single backing arrays, built once
// per trace and memoized on the graph. Duplicate edges (both source operands
// reading the same producer) are kept — npred counts them with multiplicity,
// so the successor lists must too.
//
// For static instruction j, intra-iteration predecessors live at
// preds[predOff[2j]:predOff[2j+1]] and loop-carried predecessors at
// preds[predOff[2j+1]:predOff[2j+2]]; succOff/succs use the same layout for
// the reverse edges.
//
// srcs restates the predecessors for placement (place.go): instruction j's
// two source operands, each as a distance back from j's slot in a table of
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
	predOff []int32
	preds   []int32
	succOff []int32
	succs   []int32
	srcs    []placeSrcs
	statics atomic.Pointer[staticTable]
}

// staticTable is a trace's per-static table over its dependence graph.
// Built once, it is only read, by every engine that runs the trace.
type staticTable struct {
	trace *trace.Trace
	insts []estatic
}

type placeSrcs struct {
	back [2]int32
	mask [2]int32
}

func flatDepsOf(g *trace.DepGraph) *flatDeps {
	return g.Derived(func() any { return buildFlatDeps(g) }).(*flatDeps)
}

func buildFlatDeps(g *trace.DepGraph) *flatDeps {
	n := len(g.Preds)
	fd := &flatDeps{n: n}
	total := 0
	for j := 0; j < n; j++ {
		total += len(g.Preds[j]) + len(g.CarriedPreds[j])
	}
	fd.predOff = make([]int32, 2*n+1)
	fd.preds = make([]int32, 0, total)
	for j := 0; j < n; j++ {
		fd.predOff[2*j] = int32(len(fd.preds))
		for _, p := range g.Preds[j] {
			fd.preds = append(fd.preds, int32(p))
		}
		fd.predOff[2*j+1] = int32(len(fd.preds))
		for _, p := range g.CarriedPreds[j] {
			fd.preds = append(fd.preds, int32(p))
		}
	}
	fd.predOff[2*n] = int32(len(fd.preds))

	fd.srcs = make([]placeSrcs, n)
	for j := 0; j < n; j++ {
		k := 0
		for q := fd.predOff[2*j]; q < fd.predOff[2*j+2]; q, k = q+1, k+1 {
			if k == 2 {
				panic("pipeline: an instruction with more than two predecessors")
			}
			back := int32(j) - fd.preds[q]
			if q >= fd.predOff[2*j+1] {
				back += int32(n)
			}
			fd.srcs[j].back[k], fd.srcs[j].mask[k] = back, -1
		}
	}

	// Invert into successor lists, preserving multiplicity and, within each
	// producer's list, consumer program order.
	cnt := make([]int32, 2*n+1)
	for j := 0; j < n; j++ {
		for _, p := range g.Preds[j] {
			cnt[2*p]++
		}
		for _, p := range g.CarriedPreds[j] {
			cnt[2*p+1]++
		}
	}
	fd.succOff = make([]int32, 2*n+1)
	off := int32(0)
	for i := 0; i < 2*n; i++ {
		fd.succOff[i] = off
		off += cnt[i]
	}
	fd.succOff[2*n] = off
	fd.succs = make([]int32, total)
	cursor := make([]int32, 2*n)
	copy(cursor, fd.succOff[:2*n])
	for j := 0; j < n; j++ {
		for _, p := range g.Preds[j] {
			fd.succs[cursor[2*p]] = int32(j)
			cursor[2*p]++
		}
		for _, p := range g.CarriedPreds[j] {
			fd.succs[cursor[2*p+1]] = int32(j)
			cursor[2*p+1]++
		}
	}
	return fd
}

// Engine holds the reusable simulation scratch: dynamic-instruction state,
// the in-order issue sequence and unit occupancy, placement's per-dynamic
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
	seq      []int32 // the in-order loop's issue sequence of dyns indexes
	fus      fuUnits
	orderBuf []int32 // extractProbe's per-cycle counts
	auditBuf []int32 // audit's per-cycle issue and claim counts

	// The request's callbacks, resolved once by resolve: per-dynamic-load
	// latencies in load order, terminating-branch outcomes and fetch gates
	// by iteration.
	lats  []int
	miss  []bool
	gates []int

	keyBuf  []byte
	entBuf  []byte
	memoHit bool

	// Age-order placement's scratch (place.go): per-dynamic retire cycles,
	// completion cycles in the layout flatDeps.srcs reads, and the
	// occupancy ring.
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
		e.prepare(&req, fd)
		e.runInOrder(&req, fd, res)
	}
	if !req.NoProbe {
		span := req.ProbeSpan
		probe := (req.Iterations / 2 / span) * span
		if probe+span > req.Iterations {
			probe = req.Iterations - span
		}
		e.extractProbe(probe*n, (probe+span)*n, res)
	}
	if req.Audit != nil {
		e.audit(&req, fd, res)
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
	loads, _ := req.Trace.NumMemOps()
	e.lats = resize(e.lats, loads*iters)
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
	for j, in := range t.Insts {
		st := estatic{op: in.Op, unit: isa.UnitFor(in.Op), lat: int32(isa.Latency[in.Op]),
			npred: fd.predOff[2*j+1] - fd.predOff[2*j], carried: fd.predOff[2*j+2] - fd.predOff[2*j+1]}
		if !isa.Pipelined[in.Op] {
			st.hold = st.lat
		}
		tab.insts[j] = st
	}
	fd.statics.Store(tab)
	return tab
}

// prepare sizes the scratch for the request and initializes the
// per-dynamic state: latencies (the resolved per-load latencies in program
// order), predecessor counts, and issue state.
func (e *Engine) prepare(req *Request, fd *flatDeps) {
	n := fd.n
	iters := req.Iterations
	e.dyns = resize(e.dyns, n*iters)
	e.iterGate = resize(e.iterGate, iters)
	clear(e.iterGate)

	loadSeq := 0
	for it := 0; it < iters; it++ {
		row := e.dyns[it*n : (it+1)*n]
		for j := range row {
			st, d := &e.statics[j], &row[j]
			d.lat = st.lat
			if st.op == isa.Load {
				d.lat = int32(e.lats[loadSeq])
				loadSeq++
			}
			d.issued, d.complete, d.readyAt = -1, 0, 0
			d.npred = st.npred
			if it > 0 {
				d.npred += st.carried
			}
			d.static, d.iter = int32(j), int32(it)
		}
	}
}

// maxUnits is the size of the largest functional-unit pool (isa.FUCount).
const maxUnits = 2

// fuUnits holds, for each unit of each pool, the first cycle it accepts an
// operation. The in-order loop claims units in non-decreasing cycles, so a
// pipelined op takes its unit until the next cycle, and an unpipelined op
// (a divide) for its latency: the previous engine's claim rule.
type fuUnits [isa.NumFUs][maxUnits]int32

// claim takes a unit of pool u at cycle now, for hold cycles when hold > 0.
// It reports false if no unit is free this cycle.
func (f *fuUnits) claim(u isa.FU, hold, now int32) bool {
	for i := range isa.FUCount[u] {
		if f[u][i] <= now {
			f[u][i] = now + max(hold, 1)
			return true
		}
	}
	return false
}

// minBusyOf returns the earliest cycle > now at which some unit of pool u
// frees up. Callers only ask when every unit of the pool is busy past now.
func (f *fuUnits) minBusyOf(u isa.FU, now int32) int32 {
	m := int32(-1)
	for _, b := range f[u][:isa.FUCount[u]] {
		if b > now && (m < 0 || b < m) {
			m = b
		}
	}
	return m
}

// runInOrder issues along the request's sequence, stall-on-use, folds
// each issue's completion into its successors, and jumps over stalled
// spans, charging them as the cycle-by-cycle loop would have.
func (e *Engine) runInOrder(req *Request, fd *flatDeps, res *Result) {
	n := fd.n
	dyns, statics := e.dyns, e.statics
	succOff, succs := fd.succOff, fd.succs
	total := len(dyns)
	width := req.Width
	iters := req.Iterations
	fus := &e.fus
	*fus = fuUnits{}
	issuedCount := 0
	cycle := int32(0)
	gate := int32(0)
	if len(e.gates) > 0 {
		gate = int32(e.gates[0])
	}

	// Dynamic issue sequence: program order, or the recorded pattern
	// repeated per span group.
	seq := resize(e.seq, total)
	if req.Policy == RecordedOrder {
		k := 0
		for base := 0; base < total; base += len(req.Order) {
			for _, pos := range req.Order {
				seq[k] = int32(base + int(pos))
				k++
			}
		}
	} else {
		for i := range seq {
			seq[i] = int32(i)
		}
	}
	e.seq = seq

	next := 0
	for next < total {
		if cycle < gate {
			res.StallFetchCycles += int(gate - cycle)
			cycle = gate
		}
		if cycle > maxCycle {
			panic("pipeline: in-order simulation did not converge")
		}
		issuedThis := 0
		fuBlocked := false
		var blocked isa.FU
		for issuedThis < width && next < total {
			d := &dyns[seq[next]]
			if d.npred != 0 {
				panic("pipeline: in-order issue saw unissued predecessor")
			}
			if d.readyAt > cycle {
				break // stall-on-use: strictly stop at first stalled inst
			}
			st := &statics[d.static]
			if !fus.claim(st.unit, st.hold, cycle) {
				fuBlocked = true
				blocked = st.unit
				break
			}
			d.issued = cycle
			d.complete = cycle + d.lat
			res.FUBusy[st.unit]++
			issuedThis++

			// Fold the completion time into the successors' operands. The
			// loop reads readyAt and npred at the head of its sequence, so
			// it needs no wakeups.
			j, it := int(d.static), int(d.iter)
			lo, mid, hi := succOff[2*j], succOff[2*j+1], succOff[2*j+2]
			if it+1 == iters {
				hi = mid
			}
			for q := lo; q < hi; q++ {
				s := it*n + int(succs[q])
				if q >= mid {
					s += n
				}
				sd := &dyns[s]
				sd.readyAt = max(sd.readyAt, d.complete)
				sd.npred--
			}
			if j == n-1 && it+1 < iters {
				gate = max(gate, e.redirect(req, it, cycle, d.complete))
			}
			next++
		}
		issuedCount += issuedThis
		if issuedThis > 0 {
			cycle++
			continue
		}
		res.LoadStallCycles++
		if !fuBlocked {
			// The head's operands are not ready: jump to when they are.
			rt := dyns[seq[next]].readyAt
			res.StallDataCycles += int(rt - cycle)
			cycle = rt
			continue
		}
		// The head is data-ready but every unit of its pool is busy past
		// this cycle; each intervening cycle replays the same failed claim,
		// so jump to the first expiry, charging the span as the per-cycle
		// loop would have.
		res.StallFUCycles++
		if m := fus.minBusyOf(blocked, cycle); m > cycle+1 {
			extra := int(m - cycle - 1)
			res.LoadStallCycles += extra
			res.StallFUCycles += extra
			cycle = m - 1
		}
		cycle++
	}
	res.Issued = issuedCount
	e.finishRun(n, res)
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
