// Package invariant is the simulator's opt-in audit mode (DESIGN.md §11):
// cheap microarchitectural sanity checks threaded through the pipeline
// engine, the cores, the cluster scheduler and the energy model. Production
// simulators ship equivalent machinery (gem5's panic/assert layer) because
// scheduling and accounting bugs skew results without failing any
// functional test — an arbitrator handing one app double turns still
// produces a plausible-looking Figure 7.
//
// Checks run only when an Auditor is attached (Config.Audit / the -audit
// flag); the default path pays a single nil comparison. Violations are
// collected as structured records, counted in the telemetry registry under
// audit.violations{,.<check>}, and surfaced as an error at end of run.
package invariant

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// MaxRecorded bounds how many violation records an Auditor retains verbatim;
// the counters keep exact totals beyond it. A broken invariant usually fires
// on every interval, so keeping the first few dozen is what a human needs.
const MaxRecorded = 64

// Violation is one failed invariant check.
type Violation struct {
	// Check names the invariant that failed (e.g. "pipeline.fu_capacity").
	Check string
	// Where locates the violation: a core label, app name or structure.
	Where string
	// Detail is the human-readable specifics, already formatted.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s[%s]: %s", v.Check, v.Where, v.Detail)
}

// Auditor collects violations from every simulator layer of one run. All
// methods are safe for concurrent use (parallel sweeps audit from worker
// goroutines) and safe on a nil receiver, so call sites need no guards
// beyond the cheap `aud != nil` that gates expensive checks.
type Auditor struct {
	reg *telemetry.Registry

	mu         sync.Mutex
	total      int
	perCheck   map[string]int
	violations []Violation
}

// New returns an Auditor reporting counters into reg (nil reg is fine: the
// registry API is nil-safe; totals still accumulate in the Auditor).
func New(reg *telemetry.Registry) *Auditor {
	return &Auditor{reg: reg, perCheck: make(map[string]int)}
}

// Violatef records one violation of check at location where.
func (a *Auditor) Violatef(check, where, format string, args ...any) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.total++
	a.perCheck[check]++
	if len(a.violations) < MaxRecorded {
		a.violations = append(a.violations, Violation{
			Check:  check,
			Where:  where,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	a.mu.Unlock()
	a.reg.Counter("audit.violations").Inc()
	a.reg.Counter("audit.violations." + check).Inc()
}

// Total reports how many violations have been recorded, including those
// past the MaxRecorded retention bound.
func (a *Auditor) Total() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Violations returns a copy of the retained violation records.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.violations...)
}

// Err summarizes the audit: nil when every check held, otherwise an error
// listing per-check counts and the first retained violation of each check.
func (a *Auditor) Err() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.total == 0 {
		return nil
	}
	checks := make([]string, 0, len(a.perCheck))
	for c := range a.perCheck {
		checks = append(checks, c)
	}
	sort.Strings(checks)
	msg := fmt.Sprintf("audit: %d invariant violation(s):", a.total)
	for _, c := range checks {
		msg += fmt.Sprintf("\n  %s ×%d", c, a.perCheck[c])
		for _, v := range a.violations {
			if v.Check == c {
				msg += fmt.Sprintf(" — e.g. [%s] %s", v.Where, v.Detail)
				break
			}
		}
	}
	return fmt.Errorf("%s", msg)
}
