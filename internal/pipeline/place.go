package pipeline

import "repro/internal/isa"

// Age-order placement, the Dataflow engine. Select is oldest-ready-first,
// so a younger instruction changes an older one's issue cycle only through
// a unit it holds: a pipelined unit is busy only in the cycle it accepts
// an operation, and in any cycle both are ready the older takes the width
// slot and the unit first. runPlaced therefore computes each dynamic
// instruction's dispatch, issue, completion and retire cycles in one pass
// in program order instead of stepping the machine cycle by cycle; when a
// divide holds its unit through a cycle an older instruction has claimed,
// it takes back the older instructions that issued after its claim and
// places them again (takeBack). The results are the cycle-stepped
// machine's, field for field (DESIGN.md §9).

// maxKeptRing bounds the occupancy ring an engine keeps between runs: a
// ring grown past it for one request is dropped after the run. The memory
// hierarchy's latencies and gates are a few hundred cycles, so suite
// traffic stays far below it (TestSuiteTakesPlacement).
const maxKeptRing = 1 << 16

// An occupancy word counts one cycle's issues in its low 4 bits and pool
// u's claims in the 4 bits at occPoolShift*(u+1); a cycle through which a
// divide holds its unit counts one claim on the pool and no issue. The
// claim test adds a bias to the word that takes a field to occFieldTop
// exactly when its count reaches its limit, the width or the pool's units,
// capped at occFieldTop. No cycle issues more than the pools' total of
// units (6, at most occFieldTop), and a hold displaces at most one claim
// per unit before its take-back, so no field, biased or not, carries into
// the next.
const (
	occPoolShift = 4
	occFieldTop  = 1 << (occPoolShift - 1)
	occIssues    = 1<<occPoolShift - 1
)

// occRing holds the occupancy words of the len(words) cycles from the
// stall sweep's fin on, the word of cycle c at c&mask. Every other word is
// zero, so the ring is all zero between runs.
type occRing struct {
	words []uint32
	mask  int32
}

// grow makes the ring hold cycle c, which lies past fin+mask, doubling it
// and rehoming the words of [fin, fin+mask].
func (r *occRing) grow(fin, c int32) {
	size := int32(len(r.words))
	for size <= c-fin {
		size <<= 1
	}
	nw := make([]uint32, size)
	for k := fin; k <= fin+r.mask; k++ {
		nw[k&(size-1)] = r.words[k&r.mask]
	}
	r.words, r.mask = nw, size-1
}

// occMasks are a run's claim words: a claim on pool u adds claim[u] to its
// cycle's word, and fits when the word plus bias[u] sets neither top bit of
// full[u].
type occMasks struct {
	claim, bias, full [isa.NumFUs]uint32
}

func occMasksFor(width int) occMasks {
	var m occMasks
	widthBias := uint32(occFieldTop - min(width, occFieldTop))
	for u := range m.claim {
		sh := occPoolShift * (uint32(u) + 1)
		m.claim[u] = 1 + 1<<sh
		m.bias[u] = widthBias + uint32(occFieldTop-isa.FUCount[u])<<sh
		m.full[u] = occFieldTop + occFieldTop<<sh
	}
	return m
}

// stallSweep classifies the cycles of a placed run in order, with the
// cycle loop's rules: a cycle that issues nothing while some dispatched
// instruction waits is a functional-unit stall if one of them is ready and
// a data stall otherwise, and one that issues nothing with nothing waiting
// and the next instruction's iteration gated is a fetch stall. A cycle is
// final once the instruction being placed dispatches after it: no later
// instruction dispatches or issues in it, and no take-back reaches it.
type stallSweep struct {
	fin    int32 // the first cycle not yet classified
	latest int32 // the latest cycle a claim occupies; no later word is set
	issued int   // instructions issued before fin

	data, fu, fetch int // the stall cycles classified
}

// advance classifies the cycles [s.fin, to) and clears their ring words.
// In each of those cycles exactly the first placed instructions have
// dispatched: the sweep advances to each new dispatch cycle as it is
// placed. A run of cycles with empty words shares one classification, so
// it is charged in one step. A cycle past the convergence guard is one the
// machine reaches, so the sweep panics there as the loop did.
func (e *Engine) advance(fd *flatDeps, s *stallSweep, to int32, placed int) {
	if to > maxCycle {
		e.occ = occRing{}
		panic("pipeline: dataflow simulation did not converge")
	}
	words, mask := e.occ.words, e.occ.mask
	for c := s.fin; c < to; {
		w := words[c&mask]
		if w&occIssues != 0 {
			words[c&mask] = 0
			s.issued += int(w & occIssues)
			c++
			continue
		}
		start := c
		switch {
		case w != 0:
			// A divide holds its unit through a cycle that issues nothing.
			words[c&mask] = 0
			c++
			if e.readyWaits(fd, start, placed) {
				s.fu++
				continue
			}
		case c > s.latest:
			c = to
		default:
			for c++; c < to && words[c&mask] == 0; c++ {
			}
		}
		if placed > s.issued {
			s.data += int(c - start)
		} else if placed < len(e.retire) {
			s.fetch += int(max(0, min(c, e.iterGate[placed/fd.n])-start))
		}
	}
	s.fin = to
}

// readyWaits reports whether one of the first placed instructions, which
// all dispatched by cycle x, waits in x with its operands complete. Only a
// divide trace asks: in a cycle that issues nothing, only a held unit can
// turn a ready instruction away. Retirement is in order, so the scan stops
// at the first instruction retired by x.
func (e *Engine) readyWaits(fd *flatDeps, x int32, placed int) bool {
	for t := placed - 1; t >= 0 && e.retire[t] > x; t-- {
		if e.dyns[t].issued > x && operands(e.comp, &fd.srcs[t%fd.n], int32(fd.n+t)) <= x {
			return true
		}
	}
	return false
}

// operands returns the cycle the operands of the instruction whose
// completion slot is comp[k] are complete.
func operands(comp []int32, src *operandSrcs, k int32) int32 {
	return max(comp[k-src.back[0]]&src.mask[0], comp[k-src.back[1]]&src.mask[1])
}

// runPlaced simulates a Dataflow request by age-order placement, setting
// each instruction's edyn and completion slot as it places it.
func (e *Engine) runPlaced(req *Request, fd *flatDeps, res *Result) {
	n := fd.n
	iters := req.Iterations
	total := n * iters
	width, window := req.Width, req.Window
	statics, srcs := e.statics, fd.srcs
	e.dyns = resize(e.dyns, total)
	e.retire = resize(e.retire, total)
	e.comp = resize(e.comp, n+total)
	e.iterGate = resize(e.iterGate, iters)
	dyns, retire, comp, iterGate := e.dyns, e.retire, e.comp, e.iterGate
	clear(comp[:n])
	iterGate[0] = 0
	if len(e.gates) > 0 {
		iterGate[0] = int32(e.gates[0])
	}
	occ := &e.occ
	if occ.words == nil {
		occ.words, occ.mask = make([]uint32, 256), 255
	}
	m := occMasksFor(width)

	var sweep stallSweep
	lastDisp, nDisp := int32(0), 0 // the latest dispatch cycle and its dispatches
	for it, idx := 0, 0; it < iters; it++ {
		for j := 0; j < n; j, idx = j+1, idx+1 {
			st, d := &statics[j], &dyns[idx]
			lat := e.latency(st, it)

			// Dispatch: in order, at most width a cycle, into a window
			// freed by retirement earlier in the same cycle, and not while
			// the iteration is gated: after the previous iteration's
			// terminating branch issues, until its redirect, and for
			// iteration 0 until its fetch gate.
			c := lastDisp
			if nDisp == width {
				c++
			}
			if idx >= window {
				c = max(c, retire[idx-window])
			}
			if g := iterGate[it]; c < g && (it == 0 || c > dyns[idx-j-1].issued) {
				c = g
			}
			if c != lastDisp {
				lastDisp, nDisp = c, 0
			}
			nDisp++
			if c > sweep.fin {
				e.advance(fd, &sweep, c, idx)
			}

			// Issue: the first cycle at or after dispatch and the operands'
			// completion with a width slot and a unit of the pool free.
			k, u := int32(n+idx), st.unit
			words, mask := occ.words, occ.mask
			for c = max(c, operands(comp, &srcs[j], k)); ; c++ {
				if c-sweep.fin > mask {
					occ.grow(sweep.fin, c)
					words, mask = occ.words, occ.mask
				}
				if w := words[c&mask]; (w+m.bias[u])&m.full[u] == 0 {
					words[c&mask] = w + m.claim[u]
					break
				}
			}
			sweep.latest = max(sweep.latest, c)
			d.lat, d.issued, d.complete = lat, c, c+lat
			comp[k] = c + lat
			d.static, d.iter = int32(j), int32(it)

			// Retire: in order, at most width a cycle. Through the window
			// this never delays a dispatch the dispatch width does not
			// already delay, but it sets the run's last cycle, which the
			// convergence guard reads.
			retire[idx] = slot(retire, idx, width, d.complete)

			if j == n-1 && it+1 < iters {
				iterGate[it+1] = e.redirect(req, it, c, d.complete)
			}

			if st.hold != 0 && e.hold(&sweep, u, c, st.hold) {
				// The hold displaces an older claim: place again every
				// older instruction that issued after c.
				e.takeBack(req, fd, &sweep, &m, idx, c)
			}
		}
	}
	e.advance(fd, &sweep, retire[total-1]+1, total)
	if len(occ.words) > maxKeptRing {
		*occ = occRing{}
	}

	res.LoadStallCycles = sweep.data + sweep.fu
	res.StallDataCycles, res.StallFUCycles, res.StallFetchCycles = sweep.data, sweep.fu, sweep.fetch
}

// slot returns the first cycle at or after c and the cycle of event idx-1
// of a stream of in-order events, at most width a cycle, that has room for
// event idx; cycles holds the cycles of the events before it.
func slot(cycles []int32, idx, width int, c int32) int32 {
	if idx > 0 {
		c = max(c, cycles[idx-1])
		if idx >= width && cycles[idx-width] == c {
			c++
		}
	}
	return c
}

// hold adds the claims of a unit of pool u held through the cycles after
// an unpipelined op's issue at c, h cycles in all, and reports whether one
// of those cycles now holds more claims than the pool has units.
func (e *Engine) hold(s *stallSweep, u isa.FU, c, h int32) (displaced bool) {
	last := c + h - 1
	if last-s.fin > e.occ.mask {
		e.occ.grow(s.fin, last)
	}
	words, mask := e.occ.words, e.occ.mask
	sh := occPoolShift * (uint32(u) + 1)
	for x := c + 1; x <= last; x++ {
		words[x&mask] += 1 << sh
		displaced = displaced || int(words[x&mask]>>sh&occIssues) > isa.FUCount[u]
	}
	s.latest = max(s.latest, last)
	return displaced
}

// takeBack restores the machine's schedule after the unpipelined op at idx
// claims its unit at c and displaces an older claim. The machine's state
// up to c depends only on events before c, so c and every issue no later
// than it stand. The older instructions that issued after c are taken
// back: they all lie within one window of idx's dispatch, since
// everything older retired by then, and none issued before the sweep's
// frontier, by which they all dispatched. They are placed again in age
// order, from no earlier than the frontier, and the retire cycles from the oldest of them through idx are
// recomputed. A taken-back divide placed again may displace an older claim
// in turn: placement then resumes from the oldest instruction it takes
// back.
func (e *Engine) takeBack(req *Request, fd *flatDeps, s *stallSweep, m *occMasks, idx int, c int32) {
	n := fd.n
	dyns, statics := e.dyns, e.statics
	from := e.retract(m, idx, req.Window, c)
	for t := from; t <= idx; t++ {
		if d := &dyns[t]; d.issued < 0 {
			j := t % n
			st, k, r := &statics[j], int32(n+t), &e.occ
			at := max(s.fin, operands(e.comp, &fd.srcs[j], k))
			for ; ; at++ {
				if at-s.fin > r.mask {
					r.grow(s.fin, at)
				}
				if (r.words[at&r.mask]+m.bias[st.unit])&m.full[st.unit] == 0 {
					break
				}
			}
			r.words[at&r.mask] += m.claim[st.unit]
			s.latest = max(s.latest, at)
			d.issued, d.complete = at, at+d.lat
			e.comp[k] = d.complete
			if it := t / n; j == n-1 && it+1 < req.Iterations {
				e.iterGate[it+1] = e.redirect(req, it, at, d.complete)
			}
			if st.hold != 0 && e.hold(s, st.unit, at, st.hold) {
				from = e.retract(m, t, req.Window, at)
				t = from - 1
				continue
			}
		}
		e.retire[t] = slot(e.retire, t, req.Width, dyns[t].complete)
	}
}

// retract takes back the instructions of the window before idx placed
// after cycle c: it removes their claims and marks them unissued. It
// returns the oldest one taken back, or idx.
func (e *Engine) retract(m *occMasks, idx, window int, c int32) int {
	words, mask, oldest := e.occ.words, e.occ.mask, idx
	for t := idx - 1; t >= max(0, idx-window+1); t-- {
		if d := &e.dyns[t]; d.issued > c {
			st := &e.statics[t%len(e.statics)]
			words[d.issued&mask] -= m.claim[st.unit]
			for x := d.issued + 1; x < d.issued+st.hold; x++ {
				words[x&mask] -= m.claim[st.unit] - 1 // the pool's claim alone
			}
			d.issued, oldest = -1, t
		}
	}
	return oldest
}
