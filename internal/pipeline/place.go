package pipeline

import "repro/internal/isa"

// Age-order placement. When every functional unit a trace uses is
// pipelined, a unit is busy only in the cycle it accepts an operation, and
// select is oldest-ready-first, so no younger instruction can change an
// older one's issue cycle. Each dynamic instruction's dispatch, issue,
// completion and retire cycles then follow from its older neighbours
// alone, and runPlaced computes them in one pass in program order instead
// of stepping the machine cycle by cycle. The results are those of
// runDataflow, field for field (DESIGN.md §9), which stays the engine for
// every request outside this domain:
//
//   - an unpipelined class (a divide) holds its unit for its latency, so a
//     younger divide that issues first can hold a unit against an older op
//     that becomes ready later: such traces never take placement;
//   - the k-th terminating branch to resolve takes the k-th resolved
//     mispredict outcome, and placement hands them out in iteration order:
//     a younger branch resolving before an older one aborts the placement;
//   - an issue more than maxPlaceSpan cycles past the dispatch frontier
//     aborts it too, which bounds the occupancy ring, and so does a retire
//     cycle at the convergence guard, where runDataflow panics.
//
// After an abort, run prepares the engine again and runs runDataflow from
// the start.

// maxPlaceSpan bounds the occupancy ring: the cycles from the current
// instruction's dispatch to the latest issue placed so far. The memory
// hierarchy's latencies and gates are a few hundred cycles, so suite
// traffic stays far below it (TestSuiteTakesPlacement).
const maxPlaceSpan = 1 << 16

// An occupancy word counts one cycle's issues in its low 4 bits and pool
// u's claims in the 4 bits at occPoolShift*(u+1). The claim test adds a
// bias to the word that takes a field to occFieldTop exactly when its
// count reaches its limit, the width or the pool's units, capped at
// occFieldTop. No cycle issues more than the pools' total of units (6,
// at most occFieldTop), so no field, biased or not, carries into the next.
const (
	occPoolShift = 4
	occFieldTop  = 1 << (occPoolShift - 1)
)

// occRing holds the occupancy words of the len(words) cycles from the
// stall sweep's fin on, the word of cycle c at c&mask. Every other word is
// zero, so the ring is all zero between runs.
type occRing struct {
	words []uint32
	mask  int32
}

// grow makes the ring hold cycle c, which lies past fin+mask, doubling it
// and rehoming the words of [fin, fin+mask]. It reports false when that
// would take more than maxPlaceSpan words.
func (r *occRing) grow(fin, c int32) bool {
	size := int32(len(r.words))
	for size <= c-fin {
		size <<= 1
	}
	if size > maxPlaceSpan {
		return false
	}
	nw := make([]uint32, size)
	for k := fin; k <= fin+r.mask; k++ {
		nw[k&(size-1)] = r.words[k&r.mask]
	}
	r.words, r.mask = nw, size-1
	return true
}

// stallSweep classifies the cycles of a placed run in order, with the
// cycle loop's rules: a cycle that issues nothing while some dispatched
// instruction waits is a data stall, and one that issues nothing with
// nothing waiting and the next instruction's iteration gated is a fetch
// stall. A cycle is final once the instruction being placed dispatches
// after it: no later instruction dispatches or issues in it.
type stallSweep struct {
	fin    int32 // the first cycle not yet classified
	latest int32 // the latest issue cycle placed; no later word is set
	issued int   // instructions issued before fin
	data   int
	fetch  int
}

// advance classifies the cycles [s.fin, to) and clears their ring words.
// In each of those cycles exactly the first placed instructions have
// dispatched: the sweep advances to each new dispatch cycle as it is
// placed. A run of cycles
// that issue nothing shares one classification, so it is charged in one
// step.
func (e *Engine) advance(s *stallSweep, to int32, placed, n int) {
	words, mask := e.occ.words, e.occ.mask
	for c := s.fin; c < to; {
		if w := words[c&mask]; w != 0 {
			words[c&mask] = 0
			s.issued += int(w & (1<<occPoolShift - 1))
			c++
			continue
		}
		start := c
		if c > s.latest {
			c = to
		} else {
			for c++; c < to && words[c&mask] == 0; c++ {
			}
		}
		if placed > s.issued {
			s.data += int(c - start)
		} else if placed < len(e.retire) {
			s.fetch += int(max(0, min(c, e.iterGate[placed/n])-start))
		}
	}
	s.fin = to
}

// runPlaced simulates a Dataflow request by age-order placement and
// reports true, or reports false, leaving res untouched but some
// mispredict outcomes drawn, when the request is outside placement's
// domain. The caller checks the static domain: a narrow graph and a
// per-static table whose classes are all pipelined. It needs no prepare:
// it sets every edyn field the audit and the result read (lat, issued,
// complete, static, iter) as it places.
func (e *Engine) runPlaced(req *Request, fd *flatDeps, res *Result) bool {
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
	words, mask := occ.words, occ.mask
	// A claim on pool u adds claim[u] to its cycle's word, and fits when
	// the word plus bias[u] sets neither top bit of full[u].
	var claim, bias, full [isa.NumFUs]uint32
	widthBias := uint32(occFieldTop - min(width, occFieldTop))
	for u := range claim {
		sh := occPoolShift * (uint32(u) + 1)
		claim[u] = 1 + 1<<sh
		bias[u] = widthBias + uint32(occFieldTop-isa.FUCount[u])<<sh
		full[u] = occFieldTop + occFieldTop<<sh
	}

	var sweep stallSweep
	var fuBusy [isa.NumFUs]uint64
	lastDisp, nDisp := int32(0), 0 // the latest dispatch cycle and its dispatches
	lastRet, nRet := int32(0), 0   // the same for retirement
	loadSeq := 0
	for it, idx := 0, 0; it < iters; it++ {
		// The front end is gated for this iteration in the cycles after
		// gateFrom and before gateTo: after the previous iteration's
		// terminating branch issues, until its redirect; iteration 0 until
		// its fetch gate.
		gateFrom, gateTo := int32(-1), iterGate[it]
		if it > 0 {
			gateFrom = dyns[idx-1].issued
		}
		for j := 0; j < n; j, idx = j+1, idx+1 {
			st, d := &statics[j], &dyns[idx]
			lat := st.lat
			if st.op == isa.Load {
				lat = int32(e.lats[loadSeq])
				loadSeq++
			}

			// Dispatch: in order, at most width a cycle, into a window
			// freed by retirement earlier in the same cycle.
			c := lastDisp
			if nDisp == width {
				c++
			}
			if idx >= window {
				c = max(c, retire[idx-window])
			}
			if c > gateFrom && c < gateTo {
				c = gateTo
			}
			if c != lastDisp {
				lastDisp, nDisp = c, 0
			}
			nDisp++
			if c > sweep.fin {
				e.advance(&sweep, c, idx, n)
			}

			// Issue: the first cycle at or after dispatch and the operands'
			// completion with a width slot and a unit of the pool free.
			src, k := &srcs[j], int32(n+idx)
			c = max(c, comp[k-src.back[0]]&src.mask[0], comp[k-src.back[1]]&src.mask[1])
			u := st.unit
			for {
				if c-sweep.fin > mask {
					if !occ.grow(sweep.fin, c) {
						clear(occ.words)
						return false
					}
					words, mask = occ.words, occ.mask
				}
				if w := words[c&mask]; (w+bias[u])&full[u] == 0 {
					words[c&mask] = w + claim[u]
					break
				}
				c++
			}
			sweep.latest = max(sweep.latest, c)
			d.lat, d.issued, d.complete = lat, c, c+lat
			comp[k] = c + lat
			d.static, d.iter = int32(j), int32(it)
			fuBusy[st.unit]++

			// Retire: in order, at most width a cycle. Through the window
			// this never delays a dispatch the dispatch width does not
			// already delay, but it sets the run's last cycle, which the
			// convergence guard reads.
			r := max(d.complete, lastRet)
			if r == lastRet && nRet == width {
				r++
			}
			if r != lastRet {
				lastRet, nRet = r, 0
			}
			nRet++
			retire[idx] = r
			if r >= maxCycle {
				// The cycles placed so far hold only if no younger branch
				// resolves first, so the guard's panic is runDataflow's.
				clear(occ.words)
				return false
			}

			if j == n-1 && it+1 < iters {
				// A terminating branch draws the next mispredict outcome;
				// that is this iteration's only if the previous branch
				// resolved no later.
				if it > 0 && c < dyns[idx-n].issued {
					clear(occ.words)
					return false
				}
				iterGate[it+1] = e.redirect(req, it, c, d.complete)
			}
		}
	}
	e.advance(&sweep, lastRet+1, total, n)

	res.Issued = total
	res.FUBusy = fuBusy
	res.LoadStallCycles = sweep.data
	res.StallDataCycles = sweep.data
	res.StallFetchCycles = sweep.fetch
	e.finishRun(n, res)
	return true
}
