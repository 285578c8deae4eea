package main

import (
	"path/filepath"
	"testing"
)

func TestResultsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	m := thisMachine()
	for _, w := range []string{"sweep-cold", "run-cold"} {
		if err := (&results{Machine: m, Runs: []runRecord{{Workload: w}}}).appendTo(path); err != nil {
			t.Fatal(err)
		}
	}
	r, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 2 || r.Runs[0].Workload != "sweep-cold" || r.Runs[1].Workload != "run-cold" {
		t.Errorf("runs after two appends: %+v", r.Runs)
	}
	other := m
	other.Commit = "another build"
	if err := (&results{Machine: other}).appendTo(path); err == nil {
		t.Error("appended runs of another build to the same file")
	}
}

// TestCompareGroups checks that compare pairs runs only within one seed and
// run length, and keeps runs with wrong outputs or a late generator out of
// the timings.
func TestCompareGroups(t *testing.T) {
	run := func(seed int64, seconds float64, correct, valid bool) runRecord {
		return runRecord{Workload: "run-cold", Seed: seed, Seconds: seconds, Correct: correct, Valid: valid}
	}
	parent := []runRecord{run(1, 10, true, true), run(2, 10, true, true), run(1, 5, true, true), run(1, 10, true, false)}
	change := []runRecord{run(2, 10, true, true), run(1, 10, false, true), run(3, 10, true, true)}
	gs := sharedGroups(parent, change)
	if len(gs) != 2 || gs[0] != (group{Seed: 1, Seconds: 10}) || gs[1] != (group{Seed: 2, Seconds: 10}) {
		t.Fatalf("shared groups = %v, want seed 1 and seed 2 at 10 s", gs)
	}
	pr, cr := gs[0].of(parent), gs[0].of(change)
	if len(pr) != 2 || len(cr) != 1 {
		t.Fatalf("group %v: %d parent and %d change runs, want 2 and 1", gs[0], len(pr), len(cr))
	}
	if n := len(usable(pr, false)); n != 1 {
		t.Errorf("usable parent runs = %d, want 1 (one is invalid)", n)
	}
	if n := len(usable(cr, false)); n != 0 {
		t.Errorf("usable change runs = %d, want 0 (the only one is incorrect)", n)
	}
	if n := skipped(pr) + skipped(cr); n != 2 {
		t.Errorf("skipped = %d, want 2", n)
	}
}
