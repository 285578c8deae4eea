package mem

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/memo"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Walk-memo oracle. A sequence of steps runs on two hierarchies, each with
// its own walkers per trace, built afresh for every run from seeds that
// depend on the trace and stream only, so two runs of one sequence, and
// the two hierarchies of one run, walk equal histories. The plain run
// empties the memo before every step, so nothing is ever tracked; every
// step of a memo run must observe exactly what the plain run observes.

// Step kinds.
const (
	stepWalk      = iota // LoadLatencies
	stepWalkGates        // LoadLatencies then FetchGates, as a measurement does
	stepGates            // FetchGates
	stepFlush            // FlushL1s
	stepShared           // LoadLatencies with the other hierarchy's walkers
	stepNext             // Walker.Next on the hierarchy's first walker of the trace
	stepClear            // memo.Reset (memo runs only)
	numStepKinds
)

type walkStep struct {
	kind, h, tr, iters int
}

// walkObs is what one step observes of its hierarchy.
type walkObs struct {
	lats          []int
	loads, stores int
	gates         []int
	addr          uint64
	cnt           counters
	occ           int
}

// suiteLoopTraces returns every loop trace of the suite, once each.
func suiteLoopTraces() []*trace.Trace {
	var out []*trace.Trace
	seen := map[*trace.Trace]bool{}
	for _, b := range program.Suite() {
		for _, ph := range b.Phases {
			for _, l := range ph.Loops {
				if !seen[l.Trace] {
					seen[l.Trace] = true
					out = append(out, l.Trace)
				}
			}
		}
	}
	return out
}

// runSteps runs steps on two fresh hierarchies; plain empties the memo
// before every step.
func runSteps(traces []*trace.Trace, steps []walkStep, plain bool) []walkObs {
	var hs [2]*Hierarchy
	var ws [2][][]*Walker
	for i := range hs {
		hs[i] = NewHierarchy()
		for _, t := range traces {
			w := make([]*Walker, len(t.Streams))
			for s, spec := range t.Streams {
				w[s] = NewWalker(spec, xrand.NewString(fmt.Sprintf("oracle:%d:%d", t.ID, s)))
			}
			ws[i] = append(ws[i], w)
		}
	}
	obs := make([]walkObs, len(steps))
	for i, st := range steps {
		if plain {
			memo.Reset()
		}
		h, t, o := hs[st.h], traces[st.tr], &obs[i]
		switch st.kind {
		case stepWalk, stepWalkGates, stepShared:
			w := ws[st.h][st.tr]
			if st.kind == stepShared {
				w = ws[1-st.h][st.tr]
			}
			var lats []int
			lats, o.loads, o.stores = h.LoadLatencies(t, w, st.iters)
			o.lats = slices.Clone(lats)
			if st.kind == stepWalkGates {
				o.gates = slices.Clone(h.FetchGates(t, st.iters))
			}
		case stepGates:
			o.gates = slices.Clone(h.FetchGates(t, st.iters))
		case stepFlush:
			h.FlushL1s()
		case stepNext:
			if w := ws[st.h][st.tr]; len(w) > 0 {
				o.addr = w[0].Next()
			}
		case stepClear:
			if !plain {
				memo.Reset()
			}
		}
		o.cnt, o.occ = h.cnt, h.L1Occupancy()
	}
	return obs
}

// diffWalks reports the first step at which got differs from want.
func diffWalks(t *testing.T, what string, steps []walkStep, got, want []walkObs) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: step %d %+v: memo observed %+v, plain walk %+v", what, i, steps[i], got[i], want[i])
		}
	}
}

// checkWalkMemo runs each sequence plainly, then through the memo three
// times in turn (a first sighting, a recording, a run of hits); every memo
// run must match its plain twin step for step. A sequence that shares a
// prefix with an earlier one follows the recorded path from its first run
// and then diverges from it.
func checkWalkMemo(t *testing.T, traces []*trace.Trace, seqs ...[]walkStep) {
	t.Helper()
	want := make([][]walkObs, len(seqs))
	for i, steps := range seqs {
		want[i] = runSteps(traces, steps, true)
	}
	memo.Reset()
	for i, steps := range seqs {
		for pass := 1; pass <= 3; pass++ {
			diffWalks(t, fmt.Sprintf("sequence %d pass %d", i, pass), steps, runSteps(traces, steps, false), want[i])
		}
	}
}

// randomSteps draws n steps over ntr traces. Walks dominate; flushes,
// shared walkers, outside draws and memo clears are rare, as each takes a
// hierarchy off the memo or moves it to an unrecorded path.
func randomSteps(rng *xrand.Rand, n, ntr int, rare bool) []walkStep {
	steps := make([]walkStep, n)
	for i := range steps {
		kind := [...]int{stepWalk, stepWalkGates, stepWalkGates, stepGates, stepWalk, stepWalkGates, stepFlush}[rng.Intn(7)]
		if rare && rng.Intn(12) == 0 {
			kind = []int{stepShared, stepNext, stepClear}[rng.Intn(3)]
		}
		steps[i] = walkStep{kind: kind, h: rng.Intn(2), tr: rng.Intn(ntr), iters: 1 + rng.Intn(12)}
	}
	return steps
}

// TestWalkMemoMatchesPlain runs seeded sequences over every suite loop
// trace, four traces to a sequence, and checks every step of every memo
// run against the plain walk.
func TestWalkMemoMatchesPlain(t *testing.T) {
	memo.Reset()
	defer memo.Reset()
	before := WalkMemoStats()
	traces := suiteLoopTraces()
	for g := 0; g < len(traces); g += 4 {
		group := traces[g:min(g+4, len(traces))]
		rng := xrand.NewString(fmt.Sprintf("walkmemo:%d", g))
		steps := randomSteps(rng, 24, len(group), g%8 == 4)
		branch := append(slices.Clone(steps[:12]), randomSteps(rng, 8, len(group), true)...)
		checkWalkMemo(t, group, steps, branch)
	}
	got := WalkMemoStats()
	t.Logf("%d traces: the memo answered %d of %d walks", len(traces), got.Hits-before.Hits, got.Walks-before.Walks)
	if got.Hits-before.Hits < (got.Walks-before.Walks)/5 {
		t.Errorf("the memo answered %d of %d walks: the oracle barely reaches the hit path", got.Hits-before.Hits, got.Walks-before.Walks)
	}
}

// TestWalkMemoAdoptsOnlyFreshWalkers: a walker advanced before its first
// walk, or advanced by another hierarchy, is not in the state its spec and
// generator imply, so the memo must not answer for it with the walks of a
// fresh one, nor the other way round.
func TestWalkMemoAdoptsOnlyFreshWalkers(t *testing.T) {
	defer memo.Reset()
	traces := walkFuzzTraces
	walk := []walkStep{{stepWalkGates, 0, 0, 4}, {stepWalk, 0, 1, 3}, {stepWalkGates, 0, 0, 4}}
	advanced := append([]walkStep{{stepNext, 0, 0, 0}, {stepNext, 0, 1, 0}}, walk...)
	shared := append([]walkStep{{stepWalk, 1, 0, 2}, {stepShared, 0, 0, 2}}, walk...)
	checkWalkMemo(t, traces, walk, advanced, walk, shared, walk)
	checkWalkMemo(t, traces, advanced, walk)
	checkWalkMemo(t, traces, shared, walk)
}

// walkFuzzTraces are the fuzz target's traces: the first loop of every
// fourth suite benchmark, which spans the memory profiles.
var walkFuzzTraces = func() []*trace.Trace {
	var out []*trace.Trace
	for i, b := range program.Suite() {
		if i%4 == 0 {
			out = append(out, b.Phases[0].Loops[0].Trace)
		}
	}
	return out
}()

// decodeWalkSteps reads two bytes a step: the first picks the kind (its
// low three bits), the hierarchy (bit 3) and the iterations less one (its
// top four bits); the second picks the trace.
func decodeWalkSteps(data []byte) []walkStep {
	var steps []walkStep
	for i := 0; i+1 < len(data) && len(steps) < 64; i += 2 {
		b := data[i]
		steps = append(steps, walkStep{
			kind:  int(b&7) % numStepKinds,
			h:     int(b>>3) & 1,
			iters: 1 + int(b>>4),
			tr:    int(data[i+1]) % len(walkFuzzTraces),
		})
	}
	return steps
}

// FuzzWalkMemo is TestWalkMemoMatchesPlain's twin over fuzzed sequences;
// the divergent branch changes the iteration count of the middle step.
func FuzzWalkMemo(f *testing.F) {
	f.Add([]byte{0x10, 0, 0x21, 1, 0x22, 2, 0x31, 0, 0x03, 0, 0x21, 0, 0x11, 3})
	f.Add([]byte{0x91, 1, 0x99, 1, 0x94, 1, 0x91, 1, 0x95, 1, 0x91, 1, 0x9c, 2})
	f.Add([]byte{0x41, 4, 0x41, 5, 0x46, 0, 0x41, 4, 0x43, 0, 0x41, 5, 0x49, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := decodeWalkSteps(data)
		if len(steps) == 0 {
			return
		}
		branch := slices.Clone(steps)
		branch[len(branch)/2].iters++
		defer memo.Reset()
		checkWalkMemo(t, walkFuzzTraces, steps, branch)
	})
}

// TestAuditCatchesCorruptWalkMemo records a path, tampers with one
// recorded latency, and replays the path under an auditor: the audited
// hierarchy walks for real and must report the entry.
func TestAuditCatchesCorruptWalkMemo(t *testing.T) {
	memo.Reset()
	defer memo.Reset()
	traces := walkFuzzTraces[:2]
	steps := []walkStep{{stepWalkGates, 0, 0, 4}, {stepWalk, 0, 1, 6}, {stepFlush, 0, 0, 0}, {stepWalkGates, 0, 0, 4}}
	for pass := 0; pass < 2; pass++ { // a first sighting, then the recording
		runSteps(traces, steps, false)
	}
	// The first walk's entry is the root child whose key a fresh hierarchy's
	// first walk encodes; its first latency byte is its output's first byte.
	t0 := traces[0]
	fresh := func() []*Walker {
		ws := make([]*Walker, len(t0.Streams))
		for s, spec := range t0.Streams {
			ws[s] = NewWalker(spec, xrand.NewString(fmt.Sprintf("oracle:%d:%d", t0.ID, s)))
		}
		return ws
	}
	probe := NewHierarchy()
	probe.encodeKey(opWalk, fresh(), 4)
	walkMemo.Lock()
	ti, _ := walkMemo.Owner(t0, false)
	_, out := walkMemo.Find(0, ti, firstSum(probe.key, t0), probe.key)
	walkMemo.Unlock()
	if out == nil {
		t.Fatal("no recorded walk at the root")
	}
	out[0] ^= 1 // one more or one fewer latency in the first run

	aud := invariant.New(nil)
	h := NewHierarchy()
	h.AttachAudit(aud, "app0.mem")
	h.LoadLatencies(t0, fresh(), 4)
	if aud.Total() == 0 {
		t.Fatal("audit passed a tampered walk entry")
	}
	v := aud.Violations()[0]
	if v.Check != "mem.walk_memo" || !strings.Contains(v.Where, "app0.mem") {
		t.Errorf("violation %+v, want a mem.walk_memo check at app0.mem", v)
	}
}

// TestReleasedHierarchyPanics: a released hierarchy gave its cache model
// away, so using it, or a walker it adopted and never caught up, must
// fail loudly rather than walk a stale model.
func TestReleasedHierarchyPanics(t *testing.T) {
	t0 := walkFuzzTraces[0]
	ws := []*Walker{NewWalker(t0.Streams[0], xrand.New(1))}
	h := NewHierarchy()
	h.LoadLatencies(t0, ws, 2)
	h.Release()
	defer func() {
		if recover() == nil {
			t.Error("a released hierarchy walked")
		}
	}()
	h.LoadLatencies(t0, ws, 2)
}
