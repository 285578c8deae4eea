package pipeline

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/trace"
)

// auditRun runs tr under pol with an auditor attached and returns it.
func auditRun(tr *trace.Trace, pol Policy, iters int) *invariant.Auditor {
	aud := invariant.New(nil)
	simulate(Request{
		Trace:      tr,
		Deps:       trace.BuildDepGraph(tr),
		Iterations: iters,
		Policy:     pol,
		Width:      isa.IssueWidth,
		Window:     isa.ROBSize,
		Audit:      aud,
		AuditLabel: "audit-test",
	})
	return aud
}

func TestAuditCleanOnEveryPolicy(t *testing.T) {
	for _, tr := range []*trace.Trace{blockedChains(4, 10), serialChain(30)} {
		for _, pol := range []Policy{ProgramOrder, Dataflow} {
			if aud := auditRun(tr, pol, 8); aud.Total() != 0 {
				t.Errorf("policy %v: %v", pol, aud.Err())
			}
		}
	}
}

func TestAuditCleanOnRecordedOrder(t *testing.T) {
	tr := blockedChains(3, 8)
	deps := trace.BuildDepGraph(tr)
	probe := simulate(Request{
		Trace: tr, Deps: deps, Iterations: 8,
		Policy: Dataflow, Width: isa.IssueWidth, Window: isa.ROBSize, ProbeSpan: 2,
	})
	aud := invariant.New(nil)
	simulate(Request{
		Trace: tr, Deps: deps, Iterations: 8,
		Policy: RecordedOrder, Order: probe.IssueOrder, ProbeSpan: 2,
		Width: isa.IssueWidth,
		Audit: aud, AuditLabel: "audit-test",
	})
	if aud.Total() != 0 {
		t.Fatalf("recorded-order replay: %v", aud.Err())
	}
}

// violated reports whether the auditor retained a violation of check.
func violated(aud *invariant.Auditor, check string) bool {
	for _, v := range aud.Violations() {
		if v.Check == check {
			return true
		}
	}
	return false
}

// tamper runs tr in-order on a private engine, lets corrupt mutate the
// engine's final state, re-audits, and returns the auditor. This white-box
// harness proves the audit actually detects broken schedules rather than
// vacuously passing.
func tamper(t *testing.T, corrupt func(e *Engine, res *Result)) *invariant.Auditor {
	t.Helper()
	tr := serialChain(20)
	req := Request{
		Trace:      tr,
		Deps:       trace.BuildDepGraph(tr),
		Iterations: 4,
		Policy:     ProgramOrder,
		Width:      isa.IssueWidth,
	}
	e := NewEngine()
	res := e.Run(req)
	corrupt(e, &res)
	aud := invariant.New(nil)
	req.Audit = aud
	req.AuditLabel = "tampered"
	e.audit(&req, &res)
	return aud
}

func TestAuditDetectsIssueCountMismatch(t *testing.T) {
	aud := tamper(t, func(e *Engine, res *Result) { res.Issued++ })
	if !violated(aud, "pipeline.issued_count") {
		t.Fatalf("tampered issue count undetected: %v", aud.Err())
	}
}

func TestAuditDetectsUnissuedInstruction(t *testing.T) {
	aud := tamper(t, func(e *Engine, res *Result) { e.dyns[3].issued = -1 })
	if !violated(aud, "pipeline.issued") {
		t.Fatalf("unissued dyn undetected: %v", aud.Err())
	}
}

func TestAuditDetectsDependenceViolation(t *testing.T) {
	aud := tamper(t, func(e *Engine, res *Result) {
		// Pull a chain link back to its producer's issue cycle — before the
		// producer's result exists. Keep complete consistent so only the
		// dependence-order invariant is at fault.
		d := &e.dyns[1]
		d.issued = e.dyns[0].issued
		d.complete = d.issued + d.lat
	})
	if !violated(aud, "pipeline.dep_order") {
		t.Fatalf("dependence violation undetected: %v", aud.Err())
	}
}

func TestAuditDetectsWidthOverflow(t *testing.T) {
	aud := tamper(t, func(e *Engine, res *Result) {
		// Cram every instruction of one iteration into the same cycle.
		c := e.dyns[0].issued
		for i := range e.dyns[:len(e.dyns)/4] {
			d := &e.dyns[i]
			d.issued = c
			d.complete = c + d.lat
		}
	})
	if !violated(aud, "pipeline.width") {
		t.Fatalf("width overflow undetected: %v", aud.Err())
	}
}

func TestAuditDetectsNonMonotoneInOrderIssue(t *testing.T) {
	aud := tamper(t, func(e *Engine, res *Result) {
		// Issue the last instruction earlier than its predecessors: legal
		// for dataflow, a contract violation for an in-order pipeline.
		d := &e.dyns[len(e.dyns)-1]
		d.issued = 0
		d.complete = d.issued + d.lat
	})
	if !violated(aud, "pipeline.inorder_monotone") {
		t.Fatalf("non-monotone issue undetected: %v", aud.Err())
	}
}

// TestAuditDropsLongSpanBuffer: the audit counts capacity over the run's
// cycle span in a buffer the engine keeps, but not one a long run grew
// past what the occupancy ring keeps.
func TestAuditDropsLongSpanBuffer(t *testing.T) {
	tr := &trace.Trace{ID: 14, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	e := NewEngine()
	for _, c := range []struct {
		lat, iters int
		kept       bool
	}{{4, 3, true}, {maxLatency, maxKeptRing/maxLatency + 1, false}, {4, 3, true}} {
		aud := invariant.New(nil)
		e.run(Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: c.iters, Policy: Dataflow,
			Width: isa.IssueWidth, Window: isa.ROBSize, NoProbe: true,
			LoadLatency: func(int) int { return c.lat }, Audit: aud, AuditLabel: "audit-test"}, false)
		if aud.Total() != 0 {
			t.Fatalf("latency %d: %v", c.lat, aud.Err())
		}
		if kept := e.auditBuf != nil; kept != c.kept {
			t.Errorf("latency %d: audit buffer of %d counts kept %v, want %v", c.lat, len(e.auditBuf), kept, c.kept)
		}
	}
}
