package mem

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Single-access oracle for the hinted walk. One hierarchy runs a sequence
// of LoadLatencies, FetchGates and FlushL1s; a twin, with twin walkers
// built from the same spec and generator, runs the unhinted single-access
// methods (LoadLatency, StoreAccess, FetchStall) in program order. After
// every step the two must agree on every latency and gate, every
// published counter and the L1 occupancy, and their L1s and TLBs must
// hold the same state.
//
// Hints go stale two ways here: the traces of a sequence share stream
// indices, so one trace's walk meets the hints another's left; and
// stepRelease releases both hierarchies and starts over, so the next
// hierarchy draws the released cache model from the pool.

// stepRelease releases both hierarchies and builds fresh ones and fresh
// walkers; the other step kinds are the walk-memo oracle's.
const stepRelease = numStepKinds

// singleSide is one side of the oracle: a hierarchy and its walkers per
// trace.
type singleSide struct {
	h  *Hierarchy
	ws [][]*Walker
}

func newSingleSide(traces []*trace.Trace) singleSide {
	s := singleSide{h: NewHierarchy()}
	for _, t := range traces {
		w := make([]*Walker, len(t.Streams))
		for i, spec := range t.Streams {
			w[i] = NewWalker(spec, xrand.NewString(fmt.Sprintf("single:%d:%d", t.ID, i)))
		}
		s.ws = append(s.ws, w)
	}
	return s
}

// singleWalk is LoadLatencies through the single-access methods: each
// memory instruction in program order, a missing stream costing an L1 hit.
func singleWalk(h *Hierarchy, t *trace.Trace, walkers []*Walker, iters int) (lats []int, loads, stores int) {
	lats = []int{}
	for it := 0; it < iters; it++ {
		for _, in := range t.Insts {
			var w *Walker
			if int(in.MemStream) < len(walkers) {
				w = walkers[in.MemStream]
			}
			switch {
			case in.Op == isa.Load && w != nil:
				lats = append(lats, h.LoadLatency(in.MemStream, w.Next()))
			case in.Op == isa.Load:
				lats = append(lats, L1Latency)
			case in.Op == isa.Store && w != nil:
				h.StoreAccess(in.MemStream, w.Next())
			}
			switch in.Op {
			case isa.Load:
				loads++
			case isa.Store:
				stores++
			}
		}
	}
	if loads+stores == 0 {
		return nil, 0, 0
	}
	return lats, loads, stores
}

// singleGates is FetchGates through FetchStall, one iteration at a time.
func singleGates(h *Hierarchy, t *trace.Trace, iters int) []int {
	gates := make([]int, iters)
	for it := range gates {
		gates[it] = h.FetchStall(uint64(t.ID)&^0x3f, t.Len()*isa.InstBytes)
	}
	return gates
}

// checkSingleAccess runs steps on a walking hierarchy and its
// single-access twin and reports the first step where they differ. A walk
// step with iterations divisible by 4 passes every walker but the last, so
// the missing-stream path runs too. The memo is emptied whenever a
// hierarchy is built, so every walk is real and none is answered.
func checkSingleAccess(t *testing.T, traces []*trace.Trace, steps []walkStep) {
	t.Helper()
	memo.Reset()
	before := WalkMemoStats()
	walked, single := newSingleSide(traces), newSingleSide(traces)
	for i, st := range steps {
		tr := traces[st.tr]
		var got, want walkObs
		switch st.kind {
		case stepWalk:
			ws, ts := walked.ws[st.tr], single.ws[st.tr]
			if st.iters%4 == 0 && len(ws) > 0 {
				ws, ts = ws[:len(ws)-1], ts[:len(ts)-1]
			}
			var lats []int
			lats, got.loads, got.stores = walked.h.LoadLatencies(tr, ws, st.iters)
			got.lats = slices.Clone(lats)
			want.lats, want.loads, want.stores = singleWalk(single.h, tr, ts, st.iters)
		case stepGates:
			got.gates = slices.Clone(walked.h.FetchGates(tr, st.iters))
			want.gates = singleGates(single.h, tr, st.iters)
		case stepFlush:
			walked.h.FlushL1s()
			single.h.FlushL1s()
		case stepRelease:
			walked.h.Release()
			single.h.Release()
			memo.Reset()
			walked, single = newSingleSide(traces), newSingleSide(traces)
		}
		got.cnt, got.occ = walked.h.cnt, walked.h.L1Occupancy()
		want.cnt, want.occ = single.h.cnt, single.h.L1Occupancy()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %+v: walk observed %+v, single accesses %+v", i, st, got, want)
		}
		if !sameL1State(walked.h.m, single.h.m) {
			t.Fatalf("step %d %+v: the walk left the L1s or TLBs in another state than the single accesses", i, st)
		}
	}
	walked.h.Release()
	single.h.Release()
	if hits := WalkMemoStats().Hits - before.Hits; hits != 0 {
		t.Fatalf("the memo answered %d walks: the oracle must walk for real", hits)
	}
}

// sameL1State reports whether two models' L1s and TLBs hold the same
// state — every tag, last use, flag, tick and count — less the TLBs'
// search shortcuts, mru and the hint table. The hints and the repeat rule
// touch only these structures. A hierarchy that has accessed nothing may
// have no model yet, which stands for an empty one.
func sameL1State(a, b *model) bool {
	if a == nil {
		a = models.New().(*model)
	}
	if b == nil {
		b = models.New().(*model)
	}
	ta, tb := [2]TLB{a.itlb, a.dtlb}, [2]TLB{b.itlb, b.dtlb}
	for i := range ta {
		ta[i].hint, ta[i].mru = tb[i].hint, tb[i].mru
	}
	return ta == tb && reflect.DeepEqual(*a.l1i, *b.l1i) && reflect.DeepEqual(*a.l1d, *b.l1d)
}

// randomSingleSteps draws n steps over ntr traces: mostly walks and gate
// walks, with flushes and rare releases.
func randomSingleSteps(rng *xrand.Rand, n, ntr int) []walkStep {
	steps := make([]walkStep, n)
	for i := range steps {
		kind := [...]int{stepWalk, stepWalk, stepWalk, stepGates, stepGates, stepFlush}[rng.Intn(6)]
		if rng.Intn(16) == 0 {
			kind = stepRelease
		}
		steps[i] = walkStep{kind: kind, tr: rng.Intn(ntr), iters: 1 + rng.Intn(12)}
	}
	return steps
}

// TestWalkMatchesSingleAccess runs seeded sequences over every suite loop
// trace, four traces to a sequence, against the single-access twin.
func TestWalkMatchesSingleAccess(t *testing.T) {
	defer memo.Reset()
	traces := suiteLoopTraces()
	for g := 0; g < len(traces); g += 4 {
		group := traces[g:min(g+4, len(traces))]
		rng := xrand.NewString(fmt.Sprintf("single:%d", g))
		checkSingleAccess(t, group, randomSingleSteps(rng, 32, len(group)))
	}
}

// FuzzWalkMatchesSingleAccess is TestWalkMatchesSingleAccess's twin over
// fuzzed sequences, read as FuzzWalkMemo reads them: the kind's low two
// bits pick a walk, a gate walk, a flush or a release.
func FuzzWalkMatchesSingleAccess(f *testing.F) {
	f.Add([]byte{0x10, 0, 0x21, 1, 0x30, 2, 0x31, 0, 0x02, 0, 0x20, 0, 0x11, 3})
	// Two traces sharing stream indices, then a release and the same walks
	// on a hierarchy that may draw the released model from the pool.
	f.Add([]byte{0x70, 0, 0x70, 1, 0x71, 0, 0x70, 0, 0x03, 0, 0x70, 1, 0x70, 0, 0x71, 1})
	f.Add([]byte{0xb0, 4, 0xb0, 5, 0x32, 0, 0xb1, 4, 0xf1, 4, 0x33, 0, 0xb0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := decodeWalkSteps(data)
		for i := range steps {
			steps[i].kind = [...]int{stepWalk, stepGates, stepFlush, stepRelease}[steps[i].kind&3]
		}
		defer memo.Reset()
		checkSingleAccess(t, walkFuzzTraces, steps)
	})
}
