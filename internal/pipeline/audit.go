package pipeline

import "repro/internal/isa"

// audit cross-checks the final dynamic-instruction state of a run against
// the machine invariants (DESIGN.md §11). It is independent of the engine's
// event-driven bookkeeping on purpose: it recomputes occupancy and ordering
// from nothing but the per-dyn (issued, complete, latency) triples and the
// dependence graph, so a bug in the wakeup lists, the calendar queue or the
// cycle-skipping logic cannot hide itself. Runs only under -audit; cost is
// O(dyns + edges) time and O(cycles touched) map space per request.
func (e *Engine) audit(req *Request, fd *flatDeps, res *Result) {
	aud := req.Audit
	where := req.AuditLabel
	if where == "" {
		where = "pipeline"
	}
	n := fd.n
	total := len(e.dyns)

	// Per-dyn arithmetic and dependence-edge ordering: every instruction
	// issued, completion is issue + latency, and no consumer issued before a
	// producer's result was available.
	issued := 0
	for idx := 0; idx < total; idx++ {
		d := &e.dyns[idx]
		if !aud.Checkf(d.issued >= 0, "pipeline.issued", where,
			"dyn %d (static %d, iter %d) never issued", idx, d.static, d.iter) {
			continue
		}
		issued++
		aud.Checkf(d.lat >= 1 && d.complete == d.issued+d.lat, "pipeline.latency", where,
			"dyn %d completes at %d, want issue %d + latency %d", idx, d.complete, d.issued, d.lat)
		j := int(d.static)
		base := int(d.iter) * n
		for _, p := range fd.preds[fd.predOff[2*j]:fd.predOff[2*j+1]] {
			pd := &e.dyns[base+int(p)]
			aud.Checkf(d.issued >= pd.complete, "pipeline.dep_order", where,
				"dyn %d issued at %d before intra-iteration pred %d completed at %d",
				idx, d.issued, base+int(p), pd.complete)
		}
		if d.iter > 0 {
			cb := base - n
			for _, p := range fd.preds[fd.predOff[2*j+1]:fd.predOff[2*j+2]] {
				pd := &e.dyns[cb+int(p)]
				aud.Checkf(d.issued >= pd.complete, "pipeline.dep_order", where,
					"dyn %d issued at %d before loop-carried pred %d completed at %d",
					idx, d.issued, cb+int(p), pd.complete)
			}
		}
	}
	aud.Checkf(res.Issued == issued, "pipeline.issued_count", where,
		"result reports %d issues, state holds %d", res.Issued, issued)

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
			aud.Checkf(d.issued >= prev, "pipeline.inorder_monotone", where,
				"sequence position %d issued at cycle %d after a successor at %d", i, d.issued, prev)
			if d.issued > prev {
				prev = d.issued
			}
		}
	}

	// Structural capacity, recomputed from scratch: per-cycle issues bounded
	// by the superscalar width, and per-pool unit claims bounded by the pool
	// size — an unpipelined op (divide) holds its unit for its full latency,
	// a pipelined op for the issue cycle only.
	issuesAt := make(map[int32]int, total)
	type poolCycle struct {
		u isa.FU
		c int32
	}
	claims := make(map[poolCycle]int, total)
	for idx := 0; idx < total; idx++ {
		d := &e.dyns[idx]
		if d.issued < 0 {
			continue
		}
		issuesAt[d.issued]++
		op := e.statics[d.static].op
		u := isa.UnitFor(op)
		claims[poolCycle{u, d.issued}]++
		if !isa.Pipelined[op] {
			for c := d.issued + 1; c < d.complete; c++ {
				claims[poolCycle{u, c}]++
			}
		}
	}
	for c, k := range issuesAt {
		aud.Checkf(k <= req.Width, "pipeline.width", where,
			"cycle %d issued %d instructions, width is %d", c, k, req.Width)
	}
	for pc, k := range claims {
		aud.Checkf(k <= isa.FUCount[pc.u], "pipeline.fu_capacity", where,
			"cycle %d holds %d claims on FU pool %d, capacity %d", pc.c, k, pc.u, isa.FUCount[pc.u])
	}
}
