package invariant

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestNilAuditorIsInert(t *testing.T) {
	var a *Auditor
	a.Violatef("x", "y", "boom %d", 1)
	if a.Total() != 0 || a.Violations() != nil || a.Err() != nil {
		t.Fatalf("nil Auditor leaked state: total=%d violations=%v err=%v",
			a.Total(), a.Violations(), a.Err())
	}
}

func TestViolatefRecordsOne(t *testing.T) {
	a := New(nil)
	if a.Total() != 0 || a.Err() != nil {
		t.Fatalf("fresh Auditor: total=%d err=%v", a.Total(), a.Err())
	}
	a.Violatef("c", "w", "value %d out of range", 7)
	if a.Total() != 1 {
		t.Fatalf("total = %d, want 1", a.Total())
	}
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("len(Violations) = %d, want 1", len(vs))
	}
	v := vs[0]
	if v.Check != "c" || v.Where != "w" || v.Detail != "value 7 out of range" {
		t.Fatalf("violation = %+v", v)
	}
	if got := v.String(); got != "c[w]: value 7 out of range" {
		t.Fatalf("String() = %q", got)
	}
}

func TestRetentionCapKeepsExactCounts(t *testing.T) {
	a := New(nil)
	const n = MaxRecorded * 3
	for i := 0; i < n; i++ {
		a.Violatef("cap", "w", "violation %d", i)
	}
	if a.Total() != n {
		t.Fatalf("total = %d, want %d", a.Total(), n)
	}
	if got := len(a.Violations()); got != MaxRecorded {
		t.Fatalf("retained %d records, want cap %d", got, MaxRecorded)
	}
	// The retained records are the first MaxRecorded, in order.
	if first := a.Violations()[0].Detail; first != "violation 0" {
		t.Fatalf("first retained = %q", first)
	}
	err := a.Err()
	if err == nil || !strings.Contains(err.Error(), "cap ×192") {
		t.Fatalf("Err() = %v, want per-check count ×192", err)
	}
}

func TestErrSummarizesPerCheck(t *testing.T) {
	a := New(nil)
	if a.Err() != nil {
		t.Fatalf("clean auditor Err() = %v", a.Err())
	}
	a.Violatef("b.second", "core1", "beta")
	a.Violatef("a.first", "core0", "alpha")
	a.Violatef("b.second", "core2", "gamma")
	err := a.Err()
	if err == nil {
		t.Fatal("Err() = nil after violations")
	}
	msg := err.Error()
	for _, want := range []string{
		"3 invariant violation(s)",
		"a.first ×1",
		"b.second ×2",
		"[core0] alpha",
		"[core1] beta", // first retained example of b.second
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Err() = %q, missing %q", msg, want)
		}
	}
	// Checks are listed sorted, so a.first precedes b.second.
	if strings.Index(msg, "a.first") > strings.Index(msg, "b.second") {
		t.Fatalf("Err() checks not sorted: %q", msg)
	}
}

func TestTelemetryCounters(t *testing.T) {
	tel := telemetry.New()
	a := New(tel.Reg())
	a.Violatef("pipeline.width", "core0", "over")
	a.Violatef("pipeline.width", "core0", "over again")
	a.Violatef("energy.closure", "sys", "off")
	if got := tel.Reg().Counter("audit.violations").Value(); got != 3 {
		t.Fatalf("audit.violations = %d, want 3", got)
	}
	if got := tel.Reg().Counter("audit.violations.pipeline.width").Value(); got != 2 {
		t.Fatalf("audit.violations.pipeline.width = %d, want 2", got)
	}
	if got := tel.Reg().Counter("audit.violations.energy.closure").Value(); got != 1 {
		t.Fatalf("audit.violations.energy.closure = %d, want 1", got)
	}
}

func TestConcurrentViolations(t *testing.T) {
	a := New(nil)
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.Violatef("race", "w", "worker %d iter %d", w, i)
			}
		}(w)
	}
	wg.Wait()
	if a.Total() != workers*each {
		t.Fatalf("total = %d, want %d", a.Total(), workers*each)
	}
	if got := len(a.Violations()); got != MaxRecorded {
		t.Fatalf("retained %d, want %d", got, MaxRecorded)
	}
}
