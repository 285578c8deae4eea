// Package arbiter implements the runtime schedulers of Section 3.2: the
// hardware arbitrator integrated with the OoO core that polls performance
// counters from all applications at every interval boundary and decides who
// gets the lone OoO next — or whether to power it down.
//
// Five policies are provided:
//
//   - SCMPKI: the paper's energy-efficiency arbitrator (Eq 1) — migrate the
//     application whose ΔSC-MPKI is highest above a threshold, damped by a
//     decay factor since its last OoO visit; power the OoO down otherwise.
//   - MaxSTP: the traditional Het-CMP throughput scheduler (Eq 2) — always
//     give the OoO to the application with the lowest expected speedup,
//     force-sampling every application periodically to refresh stale IPCs.
//   - SCMPKIMaxSTP: MaxSTP acting on Mirage hardware (memoized InO IPCs).
//   - Fair: plain round-robin (equal time share on a traditional Het-CMP).
//   - SCMPKIFair: fairness with memoization credit (Eq 3) — round-robin,
//     but skip (and power down) when the candidate already meets its OoO
//     share through memoized execution.
package arbiter

import "math"

// AppState is the per-application counter snapshot the arbitrator polls at
// an interval boundary.
type AppState struct {
	// Index identifies the application within the cluster.
	Index int
	// OnOoO reports whether the app ran on the OoO during the last interval.
	OnOoO bool
	// IPCInO is the IPC observed over the last interval the app ran on its
	// InO core (with memoization, replay intervals raise it).
	IPCInO float64
	// IPCOoO is the IPC measured the last time the app ran on the OoO
	// (Eq 2 approximates current OoO IPC by the last sample). Zero when the
	// app has never been sampled.
	IPCOoO float64
	// SCMPKIInO is the Schedule-Cache misses per kilo-instruction observed
	// on the InO core over the last interval.
	SCMPKIInO float64
	// SCMPKIOoO is the memoizability of the current phase, measured on the
	// OoO during the last memoize phase (Eq 1 denominator).
	SCMPKIOoO float64
	// HaveOoOStats reports whether SCMPKIOoO/IPCOoO have ever been measured.
	HaveOoOStats bool
	// IntervalsSinceOoO counts intervals since the last OoO visit.
	IntervalsSinceOoO int
	// Util is the Eq 3 utilization share: (t_OoO + t_memoized*speedup)/t_total.
	Util float64
}

// None means the OoO is powered down for the next interval.
const None = -1

// Arbiter decides which application occupies the OoO each interval.
type Arbiter interface {
	Name() string
	// Decide returns the index of the application to run on the OoO for
	// the next interval, or None to power the OoO down.
	Decide(apps []AppState, interval int) int
}

// DeltaSCMPKI computes Eq 1 with a floor on the denominator so perfectly
// memoized phases (SC-MPKI_OoO == 0) don't divide by zero.
func DeltaSCMPKI(a AppState) float64 {
	const eps = 0.05
	den := a.SCMPKIOoO
	if !a.HaveOoOStats {
		// Never memoized: assume neutral memoizability so a high InO MPKI
		// bootstraps the first visit.
		den = 1.0
	}
	if den < eps {
		den = eps
	}
	return (a.SCMPKIInO - den) / den
}

// SCMPKI is the energy-efficiency arbitrator of Section 3.2.1.
type SCMPKI struct {
	// Threshold is the minimum decayed ΔSC-MPKI that justifies waking the
	// OoO; below it the OoO is power-gated for the interval.
	Threshold float64
	// DecayLag controls the ping-pong damper: an application's Δ is scaled
	// by s/(s+DecayLag) where s is intervals since its last OoO visit.
	DecayLag float64
}

// NewSCMPKI returns the arbitrator with the defaults used in the paper's
// evaluation.
func NewSCMPKI() *SCMPKI { return &SCMPKI{Threshold: 0.5, DecayLag: 4} }

// Name implements Arbiter.
func (s *SCMPKI) Name() string { return "SC-MPKI" }

// Decide implements Arbiter.
func (s *SCMPKI) Decide(apps []AppState, interval int) int {
	best, bestVal := None, s.Threshold
	for _, a := range apps {
		d := DeltaSCMPKI(a)
		if s.DecayLag > 0 {
			since := float64(a.IntervalsSinceOoO)
			d *= since / (since + s.DecayLag)
		}
		if d > bestVal {
			best, bestVal = a.Index, d
		}
	}
	return best
}

// MaxSTP is the traditional throughput arbitrator of Section 3.2.2.
type MaxSTP struct {
	// SampleEvery forces each application onto the OoO at least once per
	// this many intervals so IPCOoO estimates don't go stale (50 M cycles
	// at the paper's 1 M-cycle interval).
	SampleEvery int
}

// NewMaxSTP returns the arbitrator with the paper's 50-interval forced
// sampling period.
func NewMaxSTP() *MaxSTP { return &MaxSTP{SampleEvery: 50} }

// Name implements Arbiter.
func (m *MaxSTP) Name() string { return "maxSTP" }

// Decide implements Arbiter.
func (m *MaxSTP) Decide(apps []AppState, interval int) int {
	// Forced sampling first: pick the stalest app at or past its deadline —
	// an app exactly SampleEvery intervals old is due now, not next interval
	// (apps never sampled count as infinitely stale). Ties keep the first
	// app in slice order.
	stalest, staleAge := None, -1
	for _, a := range apps {
		age := a.IntervalsSinceOoO
		if !a.HaveOoOStats {
			age = math.MaxInt32
		}
		if age >= m.SampleEvery && age > staleAge {
			stalest, staleAge = a.Index, age
		}
	}
	if stalest != None {
		return stalest
	}
	// Otherwise reserve the OoO for the worst slowdown (Eq 2).
	best, bestSpeedup := None, math.Inf(1)
	for _, a := range apps {
		if a.IPCOoO <= 0 {
			return a.Index
		}
		sp := a.IPCInO / a.IPCOoO
		if sp < bestSpeedup {
			best, bestSpeedup = a.Index, sp
		}
	}
	return best
}

// SCMPKIMaxSTP is MaxSTP running on Mirage hardware: identical policy, but
// because memoized InO execution already runs near OoO speed, the slowest
// speedup naturally points at non-memoized applications.
type SCMPKIMaxSTP struct{ MaxSTP }

// NewSCMPKIMaxSTP returns the Mirage throughput arbitrator.
func NewSCMPKIMaxSTP() *SCMPKIMaxSTP { return &SCMPKIMaxSTP{MaxSTP{SampleEvery: 50}} }

// Name implements Arbiter.
func (m *SCMPKIMaxSTP) Name() string { return "SC-MPKI+maxSTP" }

// Fair is plain round-robin (Section 3.2.3's baseline on traditional
// hardware): every application gets an equal OoO time share, whether or not
// it benefits.
type Fair struct{}

// NewFair returns the round-robin arbitrator.
func NewFair() *Fair { return &Fair{} }

// Name implements Arbiter.
func (f *Fair) Name() string { return "Fair" }

// rotate returns the position in apps of the application whose turn it is:
// the smallest stable Index at or after interval mod P, wrapping to the
// smallest live Index, where P spans the largest live Index. Rotating over
// stable indices (rather than positions in the currently-live slice) keeps
// each surviving application's turn fixed when others finish and leave the
// slice — indexing the live slice directly would skew the rotation and hand
// some applications double turns. Returns -1 for an empty slice.
func rotate(apps []AppState, interval int) int {
	if len(apps) == 0 {
		return -1
	}
	maxIdx := 0
	for _, a := range apps {
		if a.Index > maxIdx {
			maxIdx = a.Index
		}
	}
	want := interval % (maxIdx + 1)
	at, wrap := -1, 0
	for i, a := range apps {
		if a.Index < apps[wrap].Index {
			wrap = i
		}
		if a.Index >= want && (at < 0 || a.Index < apps[at].Index) {
			at = i
		}
	}
	if at < 0 {
		return wrap
	}
	return at
}

// Decide implements Arbiter.
func (f *Fair) Decide(apps []AppState, interval int) int {
	if at := rotate(apps, interval); at >= 0 {
		return apps[at].Index
	}
	return None
}

// SCMPKIFair is the fairness arbitrator with memoization credit (Eq 3):
// time spent executing memoized schedules near OoO speed counts toward an
// application's OoO share, so applications already meeting their share are
// skipped and the OoO powered down — fairness without the energy bill.
type SCMPKIFair struct {
	// Threshold mirrors SCMPKI.Threshold for the staleness escape hatch: a
	// candidate whose SC went stale migrates even if its Util is met.
	Threshold float64
}

// NewSCMPKIFair returns the fairness arbitrator with defaults.
func NewSCMPKIFair() *SCMPKIFair { return &SCMPKIFair{Threshold: 0.5} }

// Name implements Arbiter.
func (f *SCMPKIFair) Name() string { return "SC-MPKI-fair" }

// Decide implements Arbiter.
func (f *SCMPKIFair) Decide(apps []AppState, interval int) int {
	at := rotate(apps, interval)
	if at < 0 {
		return None
	}
	share := 1.0 / float64(len(apps))
	a := apps[at]
	// The candidate takes its turn unless it already meets its share and
	// its Schedule Cache is still fresh — then conserve energy instead.
	if a.Util < share || DeltaSCMPKI(a) > f.Threshold {
		return a.Index
	}
	return None
}

// ValidDecision reports whether pick is a legal Decide result over apps:
// None, or the stable Index of one of the presented applications. The
// cluster's invariant audit (DESIGN.md §11) applies it to every arbitration
// decision — a policy returning an index it was never shown (e.g. an app
// already granted a slot this boundary) is a scheduling bug that would
// otherwise skew occupancy silently.
func ValidDecision(apps []AppState, pick int) bool {
	if pick == None {
		return true
	}
	for _, a := range apps {
		if a.Index == pick {
			return true
		}
	}
	return false
}
