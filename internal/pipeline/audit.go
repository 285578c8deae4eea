package pipeline

import "repro/internal/isa"

// audit cross-checks the final dynamic-instruction state of a run against
// the machine invariants (DESIGN.md §11). It is independent of the
// engines' bookkeeping on purpose: it recomputes occupancy and ordering
// from nothing but the per-dyn (issued, complete, latency) triples and the
// trace.DepGraph itself, not the operand table the engines read, so a bug
// in that table, placement's occupancy ring and take-backs or the in-order
// pass's stall jumps cannot hide itself. Runs only under -audit; a check
// formats its message only when it fails. Cost is O(dyns + edges +
// cycles) time and O(cycles) space per request, the space in a buffer the
// engine keeps for short runs.
func (e *Engine) audit(req *Request, res *Result) {
	aud := req.Audit
	where := req.AuditLabel
	if where == "" {
		where = "pipeline"
	}
	g := req.Deps
	n := len(g.Preds)
	total := len(e.dyns)

	// Per-dyn arithmetic and dependence-edge ordering: every instruction
	// issued, completion is issue + latency, and no consumer issued before a
	// producer's result was available.
	issued := 0
	first, last := int32(-1), int32(-1) // the cycles the run's claims span
	for idx := 0; idx < total; idx++ {
		d := &e.dyns[idx]
		if d.issued < 0 {
			aud.Violatef("pipeline.issued", where,
				"dyn %d (static %d, iter %d) never issued", idx, d.static, d.iter)
			continue
		}
		issued++
		if first < 0 || d.issued < first {
			first = d.issued
		}
		last = max(last, d.issued, d.complete-1)
		if d.lat < 1 || d.complete != d.issued+d.lat {
			aud.Violatef("pipeline.latency", where,
				"dyn %d completes at %d, want issue %d + latency %d", idx, d.complete, d.issued, d.lat)
		}
		j := int(d.static)
		base := int(d.iter) * n
		for _, p := range g.Preds[j] {
			if pd := &e.dyns[base+p]; d.issued < pd.complete {
				aud.Violatef("pipeline.dep_order", where,
					"dyn %d issued at %d before intra-iteration pred %d completed at %d",
					idx, d.issued, base+p, pd.complete)
			}
		}
		if d.iter > 0 {
			cb := base - n
			for _, p := range g.CarriedPreds[j] {
				if pd := &e.dyns[cb+p]; d.issued < pd.complete {
					aud.Violatef("pipeline.dep_order", where,
						"dyn %d issued at %d before loop-carried pred %d completed at %d",
						idx, d.issued, cb+p, pd.complete)
				}
			}
		}
	}
	if res.Issued != issued {
		aud.Violatef("pipeline.issued_count", where,
			"result reports %d issues, state holds %d", res.Issued, issued)
	}

	// In-order policies issue along their sequence with monotone non-
	// decreasing cycles — the stall-on-use contract. Dataflow has no such
	// order (that is its point).
	if req.Policy != Dataflow {
		prev := int32(0)
		for i, k := range e.seq {
			d := &e.dyns[k]
			if d.issued < 0 {
				continue // already reported above
			}
			if d.issued < prev {
				aud.Violatef("pipeline.inorder_monotone", where,
					"sequence position %d issued at cycle %d after a successor at %d", i, d.issued, prev)
			}
			prev = max(prev, d.issued)
		}
	}

	// Structural capacity, recomputed from scratch: per-cycle issues bounded
	// by the superscalar width, and per-pool unit claims bounded by the pool
	// size — an unpipelined op (divide) holds its unit for its full latency,
	// a pipelined op for the issue cycle only. Counted per cycle of the
	// run's span: issues in row 0, pool u's claims in row u+1.
	// The engine keeps the buffer for the spans it keeps the occupancy ring
	// for, and lets a longer run's go, as runPlaced does the ring's.
	span := int(last-first) + 1
	counts := resize(e.auditBuf, span*(int(isa.NumFUs)+1))
	clear(counts)
	e.auditBuf = counts
	if span > maxKeptRing {
		e.auditBuf = nil
	}
	for _, d := range e.dyns {
		if d.issued < 0 {
			continue
		}
		op := e.statics[d.static].op
		counts[d.issued-first]++
		claims := counts[(int(isa.UnitFor(op))+1)*span:]
		for c := d.issued; c == d.issued || !isa.Pipelined[op] && c < d.complete; c++ {
			claims[c-first]++
		}
	}
	for c, k := range counts[:span] {
		if int(k) > req.Width {
			aud.Violatef("pipeline.width", where,
				"cycle %d issued %d instructions, width is %d", int(first)+c, k, req.Width)
		}
	}
	for u := isa.FU(0); u < isa.NumFUs; u++ {
		for c, k := range counts[(int(u)+1)*span:][:span] {
			if int(k) > isa.FUCount[u] {
				aud.Violatef("pipeline.fu_capacity", where,
					"cycle %d holds %d claims on FU pool %d, capacity %d", int(first)+c, k, u, isa.FUCount[u])
			}
		}
	}
}
