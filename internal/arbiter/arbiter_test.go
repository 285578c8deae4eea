package arbiter

import "testing"

// mkState builds a baseline app state that is content on its InO core.
func mkState(i int) AppState {
	return AppState{
		Index:             i,
		IPCInO:            1.5,
		IPCOoO:            2.0,
		SCMPKIInO:         0.5,
		SCMPKIOoO:         0.5,
		HaveOoOStats:      true,
		IntervalsSinceOoO: 20,
		Util:              0.2,
	}
}

func states(n int) []AppState {
	out := make([]AppState, n)
	for i := range out {
		out[i] = mkState(i)
	}
	return out
}

func TestSCMPKIPowersDownWhenNothingToDo(t *testing.T) {
	a := NewSCMPKI()
	if got := a.Decide(states(4), 0); got != None {
		t.Errorf("contented apps should power the OoO down, picked %d", got)
	}
}

func TestSCMPKIPicksHighestDelta(t *testing.T) {
	a := NewSCMPKI()
	ss := states(4)
	ss[2].SCMPKIInO = 8 // phase change: SC gone stale
	ss[1].SCMPKIInO = 3
	if got := a.Decide(ss, 0); got != 2 {
		t.Errorf("picked %d, want the app with the largest ΔSC-MPKI (2)", got)
	}
}

func TestSCMPKIAvoidsInherentlyUnmemoizable(t *testing.T) {
	a := NewSCMPKI()
	ss := states(3)
	// astar-style: misses everywhere — on the InO *and* on the OoO. The
	// ratio form of Eq 1 keeps Δ small.
	ss[1].SCMPKIInO = 12
	ss[1].SCMPKIOoO = 11
	if got := a.Decide(ss, 0); got != None {
		t.Errorf("unmemoizable app scheduled on the OoO (picked %d)", got)
	}
}

func TestSCMPKIDecayDampsPingPong(t *testing.T) {
	a := NewSCMPKI()
	ss := states(2)
	// Both stale, but app 0 just came back from the OoO (gcc-style).
	ss[0].SCMPKIInO = 6
	ss[0].IntervalsSinceOoO = 0
	ss[1].SCMPKIInO = 4
	ss[1].IntervalsSinceOoO = 30
	if got := a.Decide(ss, 0); got != 1 {
		t.Errorf("picked %d; the decay factor should prefer the long-idle app", got)
	}
	// An app that just left the OoO must never bounce straight back.
	solo := states(1)
	solo[0].SCMPKIInO = 50
	solo[0].IntervalsSinceOoO = 0
	if got := a.Decide(solo, 0); got != None {
		t.Errorf("zero-age app re-migrated immediately (picked %d)", got)
	}
}

func TestSCMPKIBootstrapsUnknownApps(t *testing.T) {
	a := NewSCMPKI()
	ss := states(2)
	ss[1].HaveOoOStats = false
	ss[1].SCMPKIInO = 5 // missing everywhere, never measured on OoO
	if got := a.Decide(ss, 0); got != 1 {
		t.Errorf("picked %d, want unmeasured app 1", got)
	}
}

func TestMaxSTPPicksWorstSlowdown(t *testing.T) {
	a := NewMaxSTP()
	ss := states(4)
	ss[3].IPCInO = 0.4 // hmmer-style: terrible on the InO
	if got := a.Decide(ss, 0); got != 3 {
		t.Errorf("picked %d, want worst-speedup app 3", got)
	}
}

func TestMaxSTPNeverPowersDown(t *testing.T) {
	a := NewMaxSTP()
	for i := 0; i < 10; i++ {
		if got := a.Decide(states(4), i); got == None {
			t.Fatal("maxSTP powered the OoO down")
		}
	}
}

func TestMaxSTPForcedSampling(t *testing.T) {
	a := NewMaxSTP()
	ss := states(4)
	ss[0].IPCInO = 0.4 // the usual pick
	ss[2].IntervalsSinceOoO = a.SampleEvery + 10
	if got := a.Decide(ss, 0); got != 2 {
		t.Errorf("picked %d, want force-sampled stale app 2", got)
	}
}

func TestMaxSTPForcedSamplingAtExactDeadline(t *testing.T) {
	a := NewMaxSTP()
	ss := states(4)
	ss[0].IPCInO = 0.4 // the throughput pick absent staleness
	// Regression: an app exactly at its SampleEvery deadline is due *now* —
	// the old `age > SampleEvery` comparison let it slip one interval.
	ss[2].IntervalsSinceOoO = a.SampleEvery
	if got := a.Decide(ss, 0); got != 2 {
		t.Errorf("picked %d, want app 2 force-sampled exactly at its deadline", got)
	}
	ss[2].IntervalsSinceOoO = a.SampleEvery - 1
	if got := a.Decide(ss, 0); got != 0 {
		t.Errorf("picked %d, want throughput pick 0 one interval before the deadline", got)
	}
}

func TestMaxSTPForcedSamplingTieKeepsFirst(t *testing.T) {
	a := NewMaxSTP()
	ss := states(3)
	ss[0].IntervalsSinceOoO = a.SampleEvery
	ss[2].IntervalsSinceOoO = a.SampleEvery
	if got := a.Decide(ss, 0); got != 0 {
		t.Errorf("picked %d, want first equally-stale app 0", got)
	}
}

func TestMaxSTPSamplesNeverMeasuredFirst(t *testing.T) {
	a := NewMaxSTP()
	ss := states(3)
	ss[1].HaveOoOStats = false
	ss[1].IPCOoO = 0
	if got := a.Decide(ss, 0); got != 1 {
		t.Errorf("picked %d, want never-sampled app 1", got)
	}
}

func TestFairRoundRobin(t *testing.T) {
	a := NewFair()
	ss := states(3)
	for i := 0; i < 9; i++ {
		if got := a.Decide(ss, i); got != i%3 {
			t.Errorf("interval %d picked %d, want %d", i, got, i%3)
		}
	}
	if got := a.Decide(nil, 0); got != None {
		t.Error("empty app list should pick none")
	}
}

// drop returns states(n) with the given stable indices removed — the live
// slice after those applications finished.
func drop(n int, gone ...int) []AppState {
	out := make([]AppState, 0, n)
	for i := 0; i < n; i++ {
		skip := false
		for _, g := range gone {
			if i == g {
				skip = true
			}
		}
		if !skip {
			out = append(out, mkState(i))
		}
	}
	return out
}

func TestFairShrinkingMixKeepsStableTurns(t *testing.T) {
	a := NewFair()
	// 4 apps; app 1 finished. Survivors keep the turn slots their stable
	// index owned before the shrink (app 1's vacated slot falls to the next
	// live index). The old position-based rotation computed interval % 3 over
	// the shrunken slice, shifting every app's phase: at interval 4 it handed
	// app 0's turn to app 2.
	ss := drop(4, 1)
	want := []int{0, 2, 2, 3, 0, 2, 2, 3}
	for i, w := range want {
		if got := a.Decide(ss, i); got != w {
			t.Errorf("interval %d picked %d, want %d", i, got, w)
		}
	}
}

func TestFairRotationIgnoresSliceOrder(t *testing.T) {
	a := NewFair()
	ss := states(4)
	// The turn belongs to a stable index, not a slice position: presenting
	// the same apps in a different order must not change the decision.
	shuffled := []AppState{ss[3], ss[1], ss[0], ss[2]}
	for i := 0; i < 8; i++ {
		if got := a.Decide(shuffled, i); got != i%4 {
			t.Errorf("interval %d picked %d from shuffled slice, want %d", i, got, i%4)
		}
	}
}

func TestSCMPKIFairGrantsBelowShare(t *testing.T) {
	a := NewSCMPKIFair()
	ss := states(4)
	ss[1].Util = 0.05 // far below 1/4 share
	if got := a.Decide(ss, 1); got != 1 {
		t.Errorf("picked %d, want under-served app 1 at its turn", got)
	}
}

func TestSCMPKIFairSkipsSatisfiedApps(t *testing.T) {
	a := NewSCMPKIFair()
	ss := states(4)
	// Candidate app 2 meets its share through memoization credit and its
	// SC is fresh: skip and power down (Section 5.3's energy point).
	ss[2].Util = 0.5
	ss[2].SCMPKIInO = 0.3
	if got := a.Decide(ss, 2); got != None {
		t.Errorf("picked %d, want OoO powered down for a satisfied candidate", got)
	}
}

func TestSCMPKIFairStalenessEscapeHatch(t *testing.T) {
	a := NewSCMPKIFair()
	ss := states(4)
	ss[2].Util = 0.5
	ss[2].SCMPKIInO = 10 // SC went stale: migrate despite met share
	if got := a.Decide(ss, 2); got != 2 {
		t.Errorf("picked %d, want stale candidate 2", got)
	}
}

func TestSCMPKIFairShrinkingMixRotation(t *testing.T) {
	a := NewSCMPKIFair()
	ss := drop(4, 1)
	for i := range ss {
		ss[i].Util = 0 // everyone under-served: every turn is granted
	}
	want := []int{0, 2, 2, 3}
	for i, w := range want {
		if got := a.Decide(ss, i); got != w {
			t.Errorf("interval %d picked %d, want stable-index turn %d", i, got, w)
		}
	}
}

func TestSCMPKIFairEscapeHatchThresholdBoundary(t *testing.T) {
	a := NewSCMPKIFair()
	ss := states(4)
	ss[2].Util = 0.5 // share met: only staleness can justify a migration
	// Δ = (SCMPKIInO - den)/den with den = SCMPKIOoO = 0.5. Exactly at the
	// threshold is not strictly greater: power down.
	ss[2].SCMPKIInO = 0.5 * (1 + a.Threshold)
	if got := a.Decide(ss, 2); got != None {
		t.Errorf("picked %d at Δ == Threshold, want power-down", got)
	}
	ss[2].SCMPKIInO += 0.01
	if got := a.Decide(ss, 2); got != 2 {
		t.Errorf("picked %d just above the threshold, want stale candidate 2", got)
	}
}

func TestSCMPKIFairEscapeHatchNeverMeasured(t *testing.T) {
	a := NewSCMPKIFair()
	ss := states(4)
	// A never-measured candidate uses the neutral denominator (1.0), so a
	// missy InO phase escapes even with its share met through memoization.
	ss[2].Util = 0.9
	ss[2].HaveOoOStats = false
	ss[2].SCMPKIOoO = 0
	ss[2].SCMPKIInO = 5
	if got := a.Decide(ss, 2); got != 2 {
		t.Errorf("picked %d, want never-measured stale candidate 2", got)
	}
}

func TestValidDecision(t *testing.T) {
	ss := drop(4, 1) // live stable indices {0, 2, 3}
	for _, pick := range []int{None, 0, 2, 3} {
		if !ValidDecision(ss, pick) {
			t.Errorf("pick %d rejected, want valid", pick)
		}
	}
	for _, pick := range []int{1, 4, -2} {
		if ValidDecision(ss, pick) {
			t.Errorf("pick %d accepted, want invalid", pick)
		}
	}
	if !ValidDecision(nil, None) || ValidDecision(nil, 0) {
		t.Error("empty slice: only None is a valid decision")
	}
}

func TestNames(t *testing.T) {
	for _, a := range []Arbiter{NewSCMPKI(), NewMaxSTP(), NewSCMPKIMaxSTP(), NewFair(), NewSCMPKIFair()} {
		if a.Name() == "" {
			t.Errorf("%T has no name", a)
		}
	}
}

func TestDeltaSCMPKIDenominatorFloor(t *testing.T) {
	a := mkState(0)
	a.SCMPKIOoO = 0 // perfectly memoizable phase
	a.SCMPKIInO = 1
	d := DeltaSCMPKI(a)
	if d <= 0 || d > 1000 {
		t.Errorf("Δ with zero denominator = %v, want positive and finite", d)
	}
}
