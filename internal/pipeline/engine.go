package pipeline

import (
	"math/bits"

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

// maxCycle is the convergence guard: both loops panic once the cycle they
// are about to issue in passes it. maxInput bounds every resolved latency,
// fetch gate and mispredict penalty (resolve rejects larger ones), so no
// cycle the loops compute exceeds maxCycle + 2*maxInput < 1<<31, which is
// what lets the per-dynamic state hold cycles in 32 bits, and no wakeup
// lies more than maxInput cycles ahead, which bounds the calendar's ring.
// The memory hierarchy's latencies and gates are a few hundred cycles.
const (
	maxCycle = 1 << 26
	maxInput = 1 << 17
)

// edyn is the per-dynamic-instruction state, in 32-bit fields so a run's
// state packs 28 bytes per instruction. Stored flat and reused across
// runs; every field is (re)initialized by prepare.
type edyn struct {
	lat      int32
	issued   int32 // cycle issued, -1 before
	complete int32
	readyAt  int32 // running max of completes over *issued* predecessors
	npred    int32 // predecessors not yet issued (counted with multiplicity)
	static   int32 // index within the trace
	iter     int32
}

// estatic is the per-static-instruction table prepare builds once per run,
// so neither it nor the issue loops map a class to its pool or latency.
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
// the per-static table, the in-order issue sequence, the ready bitmap, the
// wakeup calendar, functional-unit occupancy, the issue-order sort buffer,
// the request's resolved inputs, the key and entry encoding buffers of the
// process-wide result memo (memo.go), and the last Result. A steady-state
// Run allocates only when the memo's arena or index grows to store an
// entry; a memo hit allocates nothing. An Engine is not safe for concurrent
// use; each worker owns one.
type Engine struct {
	dyns     []edyn
	statics  []estatic
	iterGate []int32
	seq      []int32 // the in-order loop's issue sequence of dyns indexes
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

	// Run totals, published once by PublishTelemetry.
	measures, memoHits             int64
	measuredCycles                 int64
	stallData, stallFU, stallFetch int64
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
// the resolved inputs, so they are all a memo key must capture. A latency
// outside [1, maxInput], or a fetch gate or mispredict penalty outside
// [0, maxInput], is a malformed request.
func (e *Engine) resolve(req *Request) {
	if req.MispredictPenalty < 0 || req.MispredictPenalty > maxInput {
		panic("pipeline: mispredict penalty out of range")
	}
	iters := req.Iterations
	loads, _ := req.Trace.NumMemOps()
	e.lats = e.lats[:0]
	for k := 0; k < loads*iters; k++ {
		lat := isa.Latency[isa.Load]
		if req.LoadLatency != nil {
			lat = req.LoadLatency(k)
		}
		if lat < 1 || lat > maxInput {
			panic("pipeline: load latency out of range")
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
// now. The k-th terminating branch to resolve takes the k-th resolved
// outcome, just as the lazy engine's k-th Mispredicts call drew the k-th
// value from the callback.
func (e *Engine) redirect(req *Request, it int, now, complete int32) int32 {
	gate := int32(0)
	if e.miss[e.missNext] {
		gate = complete + int32(req.MispredictPenalty)
	}
	e.missNext++
	if len(e.gates) > 0 {
		gate = max(gate, now+int32(e.gates[it+1]))
	}
	return gate
}

// prepare sizes the scratch for the request and initializes the per-static
// table and per-dynamic state: latencies (the resolved per-load latencies
// in program order), predecessor counts, and issue state.
func (e *Engine) prepare(req *Request, fd *flatDeps) {
	n := fd.n
	iters := req.Iterations
	e.dyns = resize(e.dyns, n*iters)
	e.iterGate = resize(e.iterGate, iters)
	clear(e.iterGate)
	e.statics = resize(e.statics, n)
	for j, in := range req.Trace.Insts {
		st := estatic{op: in.Op, unit: isa.UnitFor(in.Op), lat: int32(isa.Latency[in.Op]),
			npred: fd.predOff[2*j+1] - fd.predOff[2*j], carried: fd.predOff[2*j+2] - fd.predOff[2*j+1]}
		if !isa.Pipelined[in.Op] {
			st.hold = st.lat
		}
		e.statics[j] = st
	}

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

func (e *Engine) runDataflow(req *Request, fd *flatDeps, res *Result) {
	n := fd.n
	dyns, statics := e.dyns, e.statics
	succOff, succs := fd.succOff, fd.succs
	total := len(dyns)
	width := req.Width
	window := req.Window
	iters := req.Iterations
	iterGate := e.iterGate
	ready, cal, fus := &e.ready, &e.cal, &e.fus
	ready.reset(total)
	cal.reset()
	fus.reset()
	if len(e.gates) > 0 {
		iterGate[0] = int32(e.gates[0])
	}

	dispatched := 0           // next undispatched index
	dispIter, dispEnd := 0, n // its iteration, and the index that starts the next one
	retired := 0
	issuedCount := 0
	inflightCount := 0 // dispatched but not yet issued
	cycle := int32(0)

	for retired < total {
		// Deliver wakeups due this cycle into the ready set. The skip logic
		// guarantees no earlier bucket is non-empty.
		if b := cal.buckets[int(cycle)&cal.mask]; len(b) > 0 {
			for _, idx := range b {
				ready.add(int(idx))
			}
			cal.pending -= len(b)
			cal.buckets[int(cycle)&cal.mask] = b[:0]
		}

		// Retire in order (commit width = issue width).
		for c := 0; c < width && retired < total; c++ {
			if d := &dyns[retired]; d.issued < 0 || d.complete > cycle {
				break
			}
			retired++
		}

		// Dispatch into the window. An instruction whose operands are already
		// complete goes straight to the ready set; one whose operands resolve
		// at a known future cycle files a calendar wakeup; one with unissued
		// predecessors is woken by them.
		for c := 0; c < width && dispatched < total; c++ {
			if dispatched-retired >= window || cycle < iterGate[dispIter] {
				break
			}
			d := &dyns[dispatched]
			if d.npred == 0 {
				if d.readyAt <= cycle {
					ready.add(dispatched)
				} else {
					cal.schedule(int(cycle), int(d.readyAt), int32(dispatched))
				}
			}
			inflightCount++
			if dispatched++; dispatched == dispEnd {
				dispIter, dispEnd = dispIter+1, dispEnd+n
			}
		}

		// Issue oldest-ready-first: an ascending scan of the ready bitmap is
		// age order, the same order the original engine walked its in-flight
		// list — so FU claims and rng callback draws happen in the same order.
		// Every ready instruction is dispatched and unretired, so the scan
		// covers the words of [retired, dispatched).
		issuedThis := 0
		fuBlocked := false
		if ready.count > 0 {
		scan:
			for w := retired >> 6; w <= (dispatched-1)>>6; w++ {
				for word := ready.words[w]; word != 0; word &= word - 1 {
					bit := bits.TrailingZeros64(word)
					idx := w<<6 | bit
					d := &dyns[idx]
					st := &statics[d.static]
					if !fus.claim(st.unit, st.hold, cycle) {
						fuBlocked = true
						continue // a later instruction of another class may fit
					}
					ready.remove(idx)
					d.issued = cycle
					d.complete = cycle + d.lat
					res.FUBusy[st.unit]++
					issuedThis++
					inflightCount--

					// Wake the successors: fold the completion time into their
					// readyAt and drop their unresolved-predecessor count; one
					// whose count hits zero once dispatched files a wakeup.
					// readyAt is then at least complete >= cycle+1 (every
					// latency is >= 1), so the wakeup is strictly in the
					// future — an instruction can never become issue-eligible
					// in the cycle its last predecessor issues, which is
					// exactly the original engine's readiness rule. The
					// intra-iteration successors are succs[lo:mid], the next
					// iteration's loop-carried ones succs[mid:hi].
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
						if sd.npred--; sd.npred == 0 && s < dispatched {
							cal.schedule(int(cycle), int(sd.readyAt), int32(s))
						}
					}
					if j == n-1 && it+1 < iters {
						// Terminating branch: resolve the next iteration's
						// front-end redirect.
						iterGate[it+1] = max(iterGate[it+1], e.redirect(req, it, cycle, d.complete))
					}
					if issuedThis == width {
						break scan
					}
				}
			}
		}
		issuedCount += issuedThis

		if issuedThis == 0 && inflightCount > 0 {
			res.LoadStallCycles++
			if fuBlocked {
				res.StallFUCycles++
			} else {
				res.StallDataCycles++
			}
		}
		fetchGated := issuedThis == 0 && inflightCount == 0 && dispatched < total &&
			cycle < iterGate[dispIter]
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
			if next := e.nextDataflowEvent(cycle, retired, dispatched, dispIter, window); next > cycle+1 {
				span := int(next - cycle - 1)
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
					if g := iterGate[dispIter]; g < next {
						res.StallFetchCycles += int(g - cycle - 1)
					} else {
						res.StallFetchCycles += span
					}
				}
				cycle = next - 1
			}
		}
		if cycle++; cycle > maxCycle {
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
// (dispIter, dispatched's) opening, a calendar wakeup making an instruction
// data-ready, and a busy functional unit freeing (only relevant when ready
// instructions exist — in an idle cycle every ready instruction is
// FU-blocked).
func (e *Engine) nextDataflowEvent(now int32, retired, dispatched, dispIter, window int) int32 {
	best := int32(-1)
	upd := func(c int32) {
		if best < 0 || c < best {
			best = c
		}
	}
	total := len(e.dyns)
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
		g := e.iterGate[dispIter]
		if g <= now {
			return now + 1 // dispatch has room and is not gated: it drains
		}
		upd(g)
	}
	if c := e.cal.next(int(now)); c >= 0 {
		upd(int32(c))
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
	dyns, statics := e.dyns, e.statics
	succOff, succs := fd.succOff, fd.succs
	total := len(dyns)
	width := req.Width
	iters := req.Iterations
	fus := &e.fus
	fus.reset()
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
