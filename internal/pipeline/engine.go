package pipeline

import (
	"slices"
	"sync"

	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The event-driven engine. The original engine rescanned every in-flight
// instruction's predecessors every cycle and advanced time one cycle at a
// time; this one propagates readiness along successor (wakeup) lists when an
// instruction issues, keeps the ready set as an age-ordered bitmap, files
// future wakeups in a calendar queue, and jumps over cycles in which nothing
// can happen — charging the skipped span to the same stall counters the
// cycle-by-cycle loop would have. Results are bit-identical to the original
// engine (see reference_test.go and DESIGN.md §9 for the argument).

// edyn is the per-dynamic-instruction state. Stored flat and reused across
// runs; every field is (re)initialized by prepare.
type edyn struct {
	lat      int
	issued   int // cycle issued, -1 before
	complete int
	readyAt  int   // running max of completes over *issued* predecessors
	npred    int32 // predecessors not yet issued (counted with multiplicity)
	static   int32 // index within the trace
	iter     int32
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
type flatDeps struct {
	n       int
	predOff []int32
	preds   []int32
	succOff []int32
	succs   []int32
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
// the ready bitmap, the wakeup calendar, functional-unit occupancy, the
// issue-order sort buffer, the request's resolved inputs, the key and entry
// encoding buffers of the process-wide result memo (memo.go), and the last
// Result. A steady-state Run allocates only when the memo's arena or index
// grows to store an entry; a memo hit allocates nothing. An Engine is not
// safe for concurrent use; each worker owns one (the package-level Run
// draws from a pool).
type Engine struct {
	dyns     []edyn
	iterGate []int
	seq      []int32
	cls      []isa.Class
	ready    readySet
	cal      calendar
	fus      fuState
	orderBuf []int32 // extractProbe's per-cycle counts

	// The request's callbacks, resolved once by resolve: per-dynamic-load
	// latencies in load order, terminating-branch outcomes in draw order
	// (missNext is the next one to hand out) and per-iteration fetch gates.
	lats     []int
	miss     []bool
	missNext int
	gates    []int

	keyBuf  []byte
	entBuf  []byte
	memoHit bool

	// res is the last Run's Result; its IterEnd and IssueOrder are the
	// buffers the next Run fills.
	res Result

	// Run totals of Engine.Run (the pooled package-level Run counts
	// nothing), published once by PublishTelemetry.
	measures, memoHits             int64
	measuredCycles                 int64
	stallData, stallFU, stallFetch int64
}

// NewEngine returns an engine with empty scratch; buffers grow to fit the
// largest request seen and are retained.
func NewEngine() *Engine {
	e := &Engine{}
	e.fus.init()
	return e
}

var enginePool = sync.Pool{New: func() any { return NewEngine() }}

// Run simulates the request and returns the result, whose slices the
// caller owns. It panics on malformed requests (simulator-internal misuse,
// not user input). The simulation runs on a pooled engine and bypasses the
// result memo; callers that measure in a loop should hold their own Engine
// instead.
func Run(req Request) Result {
	e := enginePool.Get().(*Engine)
	res := e.run(req, false)
	res.IterEnd, res.IssueOrder = slices.Clone(res.IterEnd), slices.Clone(res.IssueOrder)
	enginePool.Put(e)
	return res
}

// Run simulates the request on this engine's scratch storage. A request
// whose resolved inputs exactly repeat an earlier one on any engine of the
// process is answered from the shared memo (memo.go) without simulating.
// The Result's IterEnd and IssueOrder are the engine's buffers: they are
// valid until the engine's next Run, and a caller that keeps them longer
// clones them.
func (e *Engine) Run(req Request) Result {
	res := e.run(req, true)
	e.measures++
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
	e.prepare(&req, fd)

	*res = Result{IterEnd: resize(res.IterEnd, req.Iterations), IssueOrder: res.IssueOrder}
	switch req.Policy {
	case Dataflow:
		e.runDataflow(&req, fd, res)
	default:
		e.runInOrder(&req, fd, res)
	}
	span := req.ProbeSpan
	probe := (req.Iterations / 2 / span) * span
	if probe+span > req.Iterations {
		probe = req.Iterations - span
	}
	e.extractProbe(probe*n, (probe+span)*n, res)
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
// the resolved inputs, so they are all a memo key must capture.
func (e *Engine) resolve(req *Request) {
	iters := req.Iterations
	loads, _ := req.Trace.NumMemOps()
	e.lats = e.lats[:0]
	for k := 0; k < loads*iters; k++ {
		lat := isa.Latency[isa.Load]
		if req.LoadLatency != nil {
			lat = req.LoadLatency(k)
		}
		e.lats = append(e.lats, lat)
	}
	e.miss = e.miss[:0]
	for it := 0; it+1 < iters; it++ {
		e.miss = append(e.miss, req.Mispredicts != nil && req.Mispredicts(it))
	}
	e.missNext = 0
	e.gates = e.gates[:0]
	if req.FetchGate != nil {
		for it := 0; it < iters; it++ {
			e.gates = append(e.gates, req.FetchGate(it))
		}
	}
}

// mispredicted hands out the next resolved branch outcome: the k-th
// terminating branch to resolve takes the k-th draw, just as the lazy
// engine's k-th Mispredicts call drew the k-th value from the callback.
func (e *Engine) mispredicted() bool {
	m := e.miss[e.missNext]
	e.missNext++
	return m
}

// prepare sizes the scratch for the request and initializes per-dynamic
// state: latencies (the resolved per-load latencies in program order),
// predecessor counts, and issue state.
func (e *Engine) prepare(req *Request, fd *flatDeps) {
	t := req.Trace
	n := fd.n
	iters := req.Iterations
	total := n * iters

	e.dyns = resize(e.dyns, total)
	e.iterGate = resize(e.iterGate, iters)
	clear(e.iterGate)
	e.cls = resize(e.cls, n)
	for j := 0; j < n; j++ {
		e.cls[j] = t.Insts[j].Op
	}

	loadSeq := 0
	for it := 0; it < iters; it++ {
		base := it * n
		for j := 0; j < n; j++ {
			d := &e.dyns[base+j]
			d.static = int32(j)
			d.iter = int32(it)
			d.issued = -1
			d.complete = 0
			d.readyAt = 0
			op := e.cls[j]
			d.lat = isa.Latency[op]
			if op == isa.Load {
				d.lat = e.lats[loadSeq]
				loadSeq++
			}
			np := fd.predOff[2*j+1] - fd.predOff[2*j]
			if it > 0 {
				np += fd.predOff[2*j+2] - fd.predOff[2*j+1]
			}
			d.npred = np
		}
	}
}

// wake notifies the successors of a just-issued instruction: fold its
// completion time into their readyAt, drop their unresolved-predecessor
// count, and when the count hits zero on an already-dispatched successor,
// file a calendar wakeup. readyAt is then at least complete >= cycle+1
// (every latency is >= 1), so the wakeup is strictly in the future — an
// instruction can never become issue-eligible in the cycle its last
// predecessor issues, which is exactly the original engine's readiness rule.
// The in-order loops pass dispatched 0: they read readyAt and npred at the
// head of their issue sequence and need no wakeups.
func (e *Engine) wake(fd *flatDeps, idx, cycle, dispatched, iters, complete int) {
	d := &e.dyns[idx]
	j := int(d.static)
	base := int(d.iter) * fd.n
	for _, k := range fd.succs[fd.succOff[2*j]:fd.succOff[2*j+1]] {
		e.wakeOne(base+int(k), cycle, dispatched, complete)
	}
	if int(d.iter)+1 < iters {
		nb := base + fd.n
		for _, k := range fd.succs[fd.succOff[2*j+1]:fd.succOff[2*j+2]] {
			e.wakeOne(nb+int(k), cycle, dispatched, complete)
		}
	}
}

func (e *Engine) wakeOne(s, cycle, dispatched, complete int) {
	d := &e.dyns[s]
	if complete > d.readyAt {
		d.readyAt = complete
	}
	d.npred--
	if d.npred == 0 && s < dispatched {
		e.cal.schedule(cycle, d.readyAt, int32(s))
	}
}

func (e *Engine) runDataflow(req *Request, fd *flatDeps, res *Result) {
	n := fd.n
	total := len(e.dyns)
	width := req.Width
	window := req.Window
	iters := req.Iterations
	iterGate := e.iterGate
	e.ready.reset(total)
	e.cal.reset()
	e.fus.reset()
	if req.FetchGate != nil {
		iterGate[0] = e.gates[0]
	}

	dispatched := 0 // next undispatched index
	retired := 0
	issuedCount := 0
	inflightCount := 0 // dispatched but not yet issued
	cycle := 0

	for retired < total {
		// Deliver wakeups due this cycle into the ready set.
		e.cal.drain(cycle, func(idx int32) { e.ready.add(int(idx)) })

		// Retire in order (commit width = issue width).
		for c := 0; c < width && retired < total; c++ {
			d := &e.dyns[retired]
			if d.issued >= 0 && d.complete <= cycle {
				retired++
			} else {
				break
			}
		}

		// Dispatch into the window. An instruction whose operands are already
		// complete goes straight to the ready set; one whose operands resolve
		// at a known future cycle files a calendar wakeup; one with unissued
		// predecessors is woken by them.
		for c := 0; c < width && dispatched < total; c++ {
			if dispatched-retired >= window {
				break
			}
			if cycle < iterGate[dispatched/n] {
				break
			}
			d := &e.dyns[dispatched]
			if d.npred == 0 {
				if d.readyAt <= cycle {
					e.ready.add(dispatched)
				} else {
					e.cal.schedule(cycle, d.readyAt, int32(dispatched))
				}
			}
			inflightCount++
			dispatched++
		}

		// Issue oldest-ready-first: an ascending scan of the ready bitmap is
		// age order, the same order the original engine walked its in-flight
		// list — so FU claims and rng callback draws happen in the same order.
		issuedThis := 0
		fuBlocked := false
		e.ready.scan(retired, dispatched, func(idx int) bool {
			d := &e.dyns[idx]
			op := e.cls[d.static]
			if !e.fus.tryIssue(op, cycle) {
				fuBlocked = true
				return true // a later instruction of another class may fit
			}
			d.issued = cycle
			d.complete = cycle + d.lat
			res.FUBusy[isa.UnitFor(op)]++
			issuedThis++
			issuedCount++
			inflightCount--
			e.ready.remove(idx)
			e.wake(fd, idx, cycle, dispatched, iters, d.complete)
			if int(d.static) == n-1 {
				if it := int(d.iter); it+1 < iters {
					// Terminating branch: resolve the next iteration's
					// front-end redirect.
					gate := 0
					if e.mispredicted() {
						gate = d.complete + req.MispredictPenalty
					}
					if req.FetchGate != nil {
						if fg := e.gates[it+1]; cycle+fg > gate {
							gate = cycle + fg
						}
					}
					if gate > iterGate[it+1] {
						iterGate[it+1] = gate
					}
				}
				res.IterEnd[d.iter] = d.complete
			}
			return issuedThis < width
		})

		if issuedThis == 0 && inflightCount > 0 {
			res.LoadStallCycles++
			if fuBlocked {
				res.StallFUCycles++
			} else {
				res.StallDataCycles++
			}
		}
		fetchGated := issuedThis == 0 && inflightCount == 0 && dispatched < total &&
			cycle < iterGate[dispatched/n]
		if fetchGated {
			// The window is empty and the front end is gated: a pure fetch
			// stall (mispredict redirect or I-fetch miss).
			res.StallFetchCycles++
		}

		// Cycle skipping: if nothing issued and no per-cycle progress (retire
		// or dispatch drain) is pending, jump to the next cycle at which the
		// machine state can change, charging the skipped span to the same
		// stall counters this cycle received — the skipped cycles are
		// provably identical idle cycles.
		if issuedThis == 0 && retired < total {
			if next := e.nextDataflowEvent(cycle, retired, dispatched, total, window, n); next > cycle+1 {
				span := next - cycle - 1
				if inflightCount > 0 {
					res.LoadStallCycles += span
					if fuBlocked {
						res.StallFUCycles += span
					} else {
						res.StallDataCycles += span
					}
				} else if fetchGated {
					// The gate may open mid-span when dispatch stays
					// window-blocked past it; fetch stalls are only counted
					// while the gate is closed.
					if g := iterGate[dispatched/n]; g < next {
						res.StallFetchCycles += g - cycle - 1
					} else {
						res.StallFetchCycles += span
					}
				}
				cycle = next - 1
			}
		}
		cycle++
		if cycle > 1<<26 {
			panic("pipeline: dataflow simulation did not converge")
		}
	}
	res.Issued = issuedCount
	e.finishRun(n, res)
}

// nextDataflowEvent returns the earliest cycle after now at which the
// dataflow machine state can change, or now+1 when the next cycle does
// per-cycle work (width-limited retire or dispatch draining) and no skip is
// possible. Candidate events: the in-order head completing (retirement and
// window-full dispatch unblock), the front-end gate of the next iteration
// opening, a calendar wakeup making an instruction data-ready, and a busy
// functional unit freeing (only relevant when ready instructions exist —
// in an idle cycle every ready instruction is FU-blocked).
func (e *Engine) nextDataflowEvent(now, retired, dispatched, total, window, n int) int {
	best := -1
	upd := func(c int) {
		if best < 0 || c < best {
			best = c
		}
	}
	if retired < total {
		d := &e.dyns[retired]
		if d.issued >= 0 {
			if d.complete <= now {
				return now + 1 // width-limited retirement continues next cycle
			}
			upd(d.complete)
		}
	}
	if dispatched < total && dispatched-retired < window {
		g := e.iterGate[dispatched/n]
		if g <= now {
			return now + 1 // dispatch has room and is not gated: it drains
		}
		upd(g)
	}
	if c := e.cal.next(now); c >= 0 {
		upd(c)
	}
	if e.ready.count > 0 {
		if c := e.fus.nextExpiry(now); c >= 0 {
			upd(c)
		}
	}
	if best < 0 {
		return now + 1
	}
	return best
}

func (e *Engine) runInOrder(req *Request, fd *flatDeps, res *Result) {
	n := fd.n
	total := len(e.dyns)
	width := req.Width
	iters := req.Iterations
	e.fus.reset()
	issuedCount := 0
	cycle := 0
	gate := 0
	if req.FetchGate != nil {
		gate = e.gates[0]
	}

	// Dynamic issue sequence: program order, or the recorded pattern repeated
	// per span group. Program order needs no table — seq is the identity.
	recorded := req.Policy == RecordedOrder
	if recorded {
		if cap(e.seq) < total {
			e.seq = make([]int32, 0, total)
		}
		e.seq = e.seq[:0]
		span := req.ProbeSpan
		for g := 0; g < iters/span; g++ {
			base := int32(g * span * n)
			for _, pos := range req.Order {
				e.seq = append(e.seq, base+int32(pos))
			}
		}
	}
	at := func(i int) int {
		if recorded {
			return int(e.seq[i])
		}
		return i
	}

	next := 0
	for next < total {
		if cycle < gate {
			res.StallFetchCycles += gate - cycle
			cycle = gate
		}
		issuedThis := 0
		fuBlocked := false
		var blockedOp isa.Class
		for issuedThis < width && next < total {
			idx := at(next)
			d := &e.dyns[idx]
			if d.npred != 0 {
				panic("pipeline: in-order issue saw unissued predecessor")
			}
			if d.readyAt > cycle {
				break // stall-on-use: strictly stop at first stalled inst
			}
			op := e.cls[d.static]
			if !e.fus.tryIssue(op, cycle) {
				fuBlocked = true
				blockedOp = op
				break
			}
			d.issued = cycle
			d.complete = cycle + d.lat
			res.FUBusy[isa.UnitFor(op)]++
			issuedThis++
			issuedCount++
			e.wake(fd, idx, cycle, 0, iters, d.complete)

			if int(d.static) == n-1 {
				res.IterEnd[d.iter] = d.complete
				if it := int(d.iter); it+1 < iters {
					g := 0
					if e.mispredicted() {
						g = d.complete + req.MispredictPenalty
					}
					if req.FetchGate != nil {
						if fg := e.gates[it+1]; cycle+fg > g {
							g = cycle + fg
						}
					}
					if g > gate {
						gate = g
					}
				}
			}
			next++
		}
		if issuedThis == 0 {
			res.LoadStallCycles++
			if fuBlocked {
				res.StallFUCycles++
			}
			// Jump to the earliest cycle something can proceed.
			if rt := e.dyns[at(next)].readyAt; rt > cycle {
				res.StallDataCycles += rt - cycle
				cycle = rt
				continue
			}
			if !fuBlocked {
				res.StallDataCycles++
			}
			if fuBlocked {
				// The head is data-ready but every unit of its class is busy
				// past this cycle; each intervening cycle replays the same
				// failed claim, so jump to the first expiry, charging the
				// span as the per-cycle loop would have.
				if m := e.fus.minBusyOf(isa.UnitFor(blockedOp), cycle); m > cycle+1 {
					extra := m - cycle - 1
					res.LoadStallCycles += extra
					res.StallFUCycles += extra
					cycle = m - 1
				}
			}
			cycle++
			if cycle > 1<<26 {
				panic("pipeline: in-order simulation did not converge")
			}
			continue
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
	iters := len(e.dyns) / n
	for it := 0; it < iters; it++ {
		end := 0
		for j := 0; j < n; j++ {
			if c := e.dyns[it*n+j].complete; c > end {
				end = c
			}
		}
		res.IterEnd[it] = end
		if end > res.Cycles {
			res.Cycles = end
		}
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
	next := resize(e.orderBuf, last-first+2)
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
