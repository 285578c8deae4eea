package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/program"
	"repro/internal/server"
)

// planKeys is what a plan sends, in order, with its warm traffic.
func planKeys(p *plan) []string {
	var out []string
	for _, r := range p.sends {
		out = append(out, r.key)
	}
	return out
}

func TestPlanSameSeedSameSchedule(t *testing.T) {
	sz := sizeFor(10, false)
	for _, w := range workloadNames {
		a, err := makePlan(w, 1, sz)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 1, sz)
		if !reflect.DeepEqual(planKeys(a), planKeys(b)) || !reflect.DeepEqual(a.open, b.open) ||
			!reflect.DeepEqual(a.arrivals, b.arrivals) || !reflect.DeepEqual(a.closed, b.closed) {
			t.Errorf("%s: seed 1 gave two different schedules", w)
		}
		for i := range a.sends {
			if !bytes.Equal(a.sends[i].body, b.sends[i].body) {
				t.Errorf("%s: request %d body differs between identical plans", w, i)
			}
		}
	}
}

func TestPlanOtherSeedOtherSchedule(t *testing.T) {
	sz := sizeFor(10, false)
	for _, w := range workloadNames {
		a, _ := makePlan(w, 1, sz)
		b, _ := makePlan(w, 2, sz)
		if reflect.DeepEqual(planKeys(a), planKeys(b)) {
			t.Errorf("%s: seeds 1 and 2 send the same keys", w)
		}
		if len(a.open) > 0 && reflect.DeepEqual(a.open, b.open) {
			t.Errorf("%s: seeds 1 and 2 send the same traffic", w)
		}
	}
}

func TestColdKeysAllDistinct(t *testing.T) {
	for _, w := range []string{"sweep-cold", "run-cold"} {
		p, _ := makePlan(w, 1, sizeFor(10, false))
		keys := planKeys(p)
		sort.Strings(keys)
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				t.Fatalf("%s: key %q repeats, so a request would hit a cache", w, keys[i])
			}
		}
	}
}

// TestPlanIsGeneratedUpFront checks that a plan holds everything the
// measured loops send, already encoded and keyed, so no input is generated
// once timing has started: the loops only index into it.
func TestPlanIsGeneratedUpFront(t *testing.T) {
	sz := sizeFor(10, false)
	for _, w := range workloadNames {
		p, _ := makePlan(w, 1, sz)
		for i, r := range p.sends {
			if len(r.body) == 0 || r.key == "" {
				t.Fatalf("%s: request %d is not pre-encoded", w, i)
			}
			var key string
			var err error
			if r.run != nil {
				var req server.RunRequest
				if err = json.Unmarshal(r.body, &req); err == nil {
					key, err = server.CanonicalRunKey(&req)
				}
			} else {
				var req server.SweepRequest
				if err = json.Unmarshal(r.body, &req); err == nil {
					key, err = server.CanonicalSweepKey(&req, p.scales)
				}
			}
			if err != nil || key != r.key {
				t.Fatalf("%s: request %d key %q, body says %q (%v)", w, i, r.key, key, err)
			}
		}
		for i, k := range append(append([]int(nil), p.open...), p.closed...) {
			if k < 0 || k >= len(p.sends) {
				t.Fatalf("%s: traffic entry %d names key %d of %d", w, i, k, len(p.sends))
			}
		}
		if !sort.SliceIsSorted(p.arrivals, func(i, j int) bool { return p.arrivals[i] < p.arrivals[j] }) {
			t.Errorf("%s: open-loop arrivals out of order", w)
		}
	}
}

func TestFleetReplaysServeWarmTraffic(t *testing.T) {
	sz := sizeFor(10, false)
	a, _ := makePlan("serve-warm", 3, sz)
	b, _ := makePlan("fleet-warm", 3, sz)
	if !reflect.DeepEqual(planKeys(a), planKeys(b)) || !reflect.DeepEqual(a.open, b.open) || !reflect.DeepEqual(a.closed, b.closed) {
		t.Error("fleet-warm does not replay serve-warm's traffic")
	}
}

func TestRunColdBlocksKeepCostProfile(t *testing.T) {
	p, _ := makePlan("run-cold", 1, sizeFor(10, false))
	for start := 0; start+len(runShapes) <= len(p.sends); start += len(runShapes) {
		apps := map[int]int{}
		for _, r := range p.sends[start : start+len(runShapes)] {
			apps[len(r.run.Mix)]++
		}
		if apps[1] != 2 || apps[2] != 2 || apps[3] != 2 {
			t.Fatalf("block at %d has mix sizes %v, want two each of 1, 2 and 3", start, apps)
		}
	}
}

// TestDeckDealsEvenly checks that the cold runs and the warm key set use
// every program equally often, give or take one, whatever the seed.
func TestDeckDealsEvenly(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, w := range []string{"run-cold", "serve-warm"} {
			p, _ := makePlan(w, seed, sizeFor(10, false))
			uses := map[string]int{}
			for _, r := range p.sends {
				for _, app := range r.run.Mix {
					uses[app]++
				}
			}
			lo, hi := len(p.sends), 0
			for _, name := range program.Names() {
				lo, hi = min(lo, uses[name]), max(hi, uses[name])
			}
			if hi-lo > 1 {
				t.Errorf("%s seed %d: programs used between %d and %d times", w, seed, lo, hi)
			}
		}
	}
}
