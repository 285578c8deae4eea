package pipeline

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// plantEntry stores under req's owner, hash sum and the encoded inputs in
// the memo the Result res, as a corrupted or colliding entry would be
// stored; as the newest entry for its key, it is the one found.
func plantEntry(req *Request, sum uint64, in []byte, res Result) {
	results.Lock()
	defer results.Unlock()
	owner, _ := results.Owner(memoOwner{req.Trace, req.Deps}, true)
	results.Add(0, owner, sum, in, appendResult(nil, req, &res))
}

// memoInputs returns req's encoded inputs and their hash, as Engine.Run
// computes them for a request it needs to fill in no defaults for.
func memoInputs(e *Engine, req Request) ([]byte, uint64) {
	e.resolve(&req)
	sum := e.memoKeyOf(&req)
	return slices.Clone(e.keyBuf), sum
}

// storedEntry returns req's encoded inputs, their hash and the Result the
// memo holds for them.
func storedEntry(t *testing.T, e *Engine, req Request) (in []byte, sum uint64, res Result) {
	t.Helper()
	in, sum = memoInputs(e, req)
	if !e.recall(&req, sum, &res) {
		t.Fatalf("no memo entry stored for trace %d", req.Trace.ID)
	}
	return in, sum, res
}

// cloneResult copies an Engine.Run result out of the engine's buffers, so
// that a later Run on the same engine cannot change it.
func cloneResult(r Result) Result {
	r.IterEnd, r.IssueOrder = slices.Clone(r.IterEnd), slices.Clone(r.IssueOrder)
	return r
}

// TestMemoHitMatchesReference runs every random request three times on one
// engine, each time from a fresh factory so stateful callbacks replay the
// same draws. The first sighting stores only a fingerprint, the second
// stores the result, and the third must be answered from the memo with the
// reference engine's result; writing into a hit's slices, the engine's
// buffers, must not change the memo.
func TestMemoHitMatchesReference(t *testing.T) {
	memo.Reset()
	e := NewEngine()
	for seed := uint64(1); seed <= 60; seed++ {
		mk := randomRequest(seed*7919 + 5)
		want := referenceRun(mk())
		for i := 0; i < 2; i++ {
			if got := e.Run(mk()); e.MemoHit() || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d run %d: hit=%v, engine diverged from reference\n got: %+v\nwant: %+v",
					seed, i+1, e.MemoHit(), got, want)
			}
		}
		hit := e.Run(mk())
		if !e.MemoHit() {
			t.Fatalf("seed %d: third sighting missed the memo", seed)
		}
		if !reflect.DeepEqual(hit, want) {
			t.Fatalf("seed %d: memoized result diverged from reference\n got: %+v\nwant: %+v", seed, hit, want)
		}
		hit.IterEnd[0]++
		hit.IssueOrder[0]++
		if again := e.Run(mk()); !reflect.DeepEqual(again, want) {
			t.Fatalf("seed %d: mutating a hit's slices changed the memo", seed)
		}
	}
}

// TestMemoKeyCoversEveryInput changes one resolved input at a time. Each
// variant is run until its result is stored; a key that missed an input
// would serve an earlier variant's entry instead of simulating.
func TestMemoKeyCoversEveryInput(t *testing.T) {
	memo.Reset()
	tr := randomTrace(4242)
	deps := trace.BuildDepGraph(tr)
	order := recordedOrderFor(tr, 2)
	identity := make([]uint16, len(order))
	for i := range identity {
		identity[i] = uint16(i)
	}
	base := func() Request {
		return Request{
			Trace: tr, Deps: deps, Iterations: 8, Policy: Dataflow,
			ProbeSpan: 2, Width: 3, Window: 64, MispredictPenalty: 9,
			LoadLatency: func(k int) int { return 2 + 15*(k%3) },
			Mispredicts: func(it int) bool { return it == 2 },
			FetchGate:   func(it int) int { return it % 2 },
		}
	}
	variants := map[string]func(*Request){
		"base":       func(*Request) {},
		"latency":    func(r *Request) { r.LoadLatency = func(k int) int { return 2 + 15*(k%3) + k/20 } },
		"mispredict": func(r *Request) { r.Mispredicts = func(it int) bool { return it == 3 } },
		"gate":       func(r *Request) { r.FetchGate = func(it int) int { return it % 3 } },
		"no-gate":    func(r *Request) { r.FetchGate = nil },
		"zero-gate":  func(r *Request) { r.FetchGate = func(int) int { return 0 } },
		"penalty":    func(r *Request) { r.MispredictPenalty = 10 },
		"width":      func(r *Request) { r.Width = 2 },
		"window":     func(r *Request) { r.Window = 32 },
		"iterations": func(r *Request) { r.Iterations = 9 },
		"span":       func(r *Request) { r.ProbeSpan = 1 },
		"inorder":    func(r *Request) { r.Policy = ProgramOrder },
		"recorded":   func(r *Request) { r.Policy, r.Order = RecordedOrder, order },
		"identity":   func(r *Request) { r.Policy, r.Order = RecordedOrder, identity },
	}
	e := NewEngine()
	for name, change := range variants {
		req := base()
		change(&req)
		want := simulate(req)
		for i := 0; i < 3; i++ {
			got := e.Run(req)
			if hit := i == 2; e.MemoHit() != hit {
				t.Errorf("%s run %d: hit=%v, want %v", name, i+1, e.MemoHit(), hit)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s run %d: memoized engine %+v, fresh run %+v", name, i+1, got, want)
			}
		}
	}
	if n, _ := MemoStats(); n != len(variants) {
		t.Errorf("memo holds %d entries for %d distinct requests", n, len(variants))
	}
}

// TestMemoComparesInputs plants an entry whose stored inputs differ from
// the request's under the same owner and hash, as a hash collision would:
// the engine must simulate rather than serve it.
func TestMemoComparesInputs(t *testing.T) {
	memo.Reset()
	tr := blockedChains(2, 5)
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4,
		Policy: ProgramOrder, Width: isa.IssueWidth, ProbeSpan: 1,
		LoadLatency: func(int) int { return 3 }, FetchGate: func(int) int { return 1 }}
	e := NewEngine()
	want := cloneResult(e.Run(req)) // the first sighting stores nothing
	in, sum := memoInputs(e, req)
	in[len(in)-1]++
	wrong := cloneResult(want)
	wrong.Cycles++
	plantEntry(&req, sum, in, wrong)
	if got := e.Run(req); e.MemoHit() || !reflect.DeepEqual(got, want) {
		t.Fatalf("entry with different inputs served: hit=%v %+v", e.MemoHit(), got)
	}
}

// TestMemoBounded pins the memo's byte budget and checks that storing more
// distinct results than it holds clears the memo instead of growing it
// (the table's own tests check the charge against any budget). 3.75 MiB
// was re-derived when the memo moved from 64 separately budgeted shards to
// one table: a bench-scale Figure 7/8/9b sweep stores 18,570 entries,
// charged 3,871,040 bytes (TestWarmSweepFitsMemo logs it), and 3.75 MiB is
// the smallest quarter MiB that holds them. The 5 MiB it replaced was the
// smallest whose 80 KiB per-shard share held the sweep's largest shard.
func TestMemoBounded(t *testing.T) {
	if memoBudget != 15<<18 {
		t.Fatalf("memoBudget %d: the measured memory bound assumes 3.75 MiB", memoBudget)
	}
	memo.Reset()
	tr := serialChain(3)
	deps := trace.BuildDepGraph(tr)
	e := NewEngine()
	const keys = 100_000 // more than 3.75 MiB holds
	peak := 0
	for i := 0; i < keys; i++ {
		req := Request{Trace: tr, Deps: deps, Iterations: 2, Policy: ProgramOrder,
			Width: isa.IssueWidth, MispredictPenalty: i}
		e.Run(req)
		e.Run(req)
		n, bytes := results.Stats()
		if bytes > memoBudget {
			t.Fatalf("after %d keys the memo is charged %d bytes, over its %d budget", i+1, bytes, memoBudget)
		}
		peak = max(peak, n)
	}
	if n, _ := MemoStats(); n == 0 || n >= peak {
		t.Fatalf("memo holds %d entries after %d stored, %d at most: want some, and a clear", n, keys, peak)
	}
}

// TestAuditCatchesCorruptMemo corrupts a stored entry and requires the
// audited repeat to simulate afresh, flag the entry and return the fresh
// result; an uncorrupted memo audits clean.
func TestAuditCatchesCorruptMemo(t *testing.T) {
	memo.Reset()
	tr := blockedChains(3, 6)
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 6,
		Policy: Dataflow, Width: isa.IssueWidth, Window: isa.ROBSize, ProbeSpan: 1}
	e := NewEngine()
	want := cloneResult(e.Run(req))
	e.Run(req) // the second sighting stores the result

	clean := invariant.New(nil)
	audited := req
	audited.Audit, audited.AuditLabel = clean, "memo-test"
	if e.Run(audited); e.MemoHit() || clean.Total() != 0 {
		t.Fatalf("audited repeat: hit=%v, violations %v", e.MemoHit(), clean.Err())
	}

	in, sum, bad := storedEntry(t, e, req)
	bad.Cycles++
	bad.IterEnd[len(bad.IterEnd)-1]++
	plantEntry(&req, sum, in, bad)
	aud := invariant.New(nil)
	audited.Audit = aud
	got := e.Run(audited)
	if !violated(aud, "pipeline.memo") {
		t.Fatalf("corrupted memo entry undetected: %v", aud.Err())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("audited run returned %+v, want the fresh %+v", got, want)
	}
	if again := e.Run(req); !e.MemoHit() || !reflect.DeepEqual(again, want) {
		t.Fatalf("the audited run should have replaced the corrupted entry: hit=%v %+v", e.MemoHit(), again)
	}
}

// TestMemoAdmitsCollidingKeys searches for two requests whose input
// hashes share a first-sighting bucket, and alternates them: the second
// sighting of each must store it despite the other's sighting in between,
// so from the third round on both are memo hits.
func TestMemoAdmitsCollidingKeys(t *testing.T) {
	tr := serialChain(3)
	deps := trace.BuildDepGraph(tr)
	mk := func(penalty int) Request {
		return Request{Trace: tr, Deps: deps, Iterations: 2, Policy: ProgramOrder,
			Width: isa.IssueWidth, ProbeSpan: 1, MispredictPenalty: penalty}
	}
	e := NewEngine()
	first := map[uint64]int{}
	fps := map[int]uint32{}
	a, b := -1, -1
	for p := 0; a < 0; p++ {
		req := mk(p)
		e.resolve(&req)
		sum := e.memoKeyOf(&req)
		bucket, fp := sum%memoSeenBuckets, uint32(sum>>32)|1
		if q, ok := first[bucket]; ok && fps[q] != fp {
			a, b = q, p
		}
		first[bucket], fps[p] = p, fp
	}
	memo.Reset()
	for round := 1; round <= 4; round++ {
		for _, p := range []int{a, b} {
			want := simulate(mk(p))
			if got := e.Run(mk(p)); !reflect.DeepEqual(got, want) {
				t.Fatalf("penalty %d, round %d: %+v, want %+v", p, round, got, want)
			}
			if round >= 3 && !e.MemoHit() {
				t.Errorf("penalty %d, round %d: missed the memo; penalty %d shares its bucket", p, round, a+b-p)
			}
		}
	}
}

// TestMemoSharedAcrossEngines: what one engine stores, another hits — the
// memo belongs to the process, not to an engine.
func TestMemoSharedAcrossEngines(t *testing.T) {
	memo.Reset()
	mk := randomRequest(99)
	want := referenceRun(mk())
	a, b := NewEngine(), NewEngine()
	a.Run(mk())
	if b.Run(mk()); b.MemoHit() {
		t.Fatal("engine B hit on the key's second sighting, before anything was stored")
	}
	got := a.Run(mk())
	if !a.MemoHit() || !reflect.DeepEqual(got, want) {
		t.Fatalf("engine A, third sighting: hit=%v, result %+v, want %+v", a.MemoHit(), got, want)
	}
	got = NewEngine().Run(mk())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a fresh engine's hit returned %+v, want %+v", got, want)
	}
}

// TestMemoConcurrent runs overlapping requests from 8 goroutines, each with
// its own engine, and requires every result to equal the reference
// engine's; under -race it is the memo's locking test.
func TestMemoConcurrent(t *testing.T) {
	memo.Reset()
	const reqs, workers, rounds = 12, 8, 3
	mks := make([]func() Request, reqs)
	wants := make([]Result, reqs)
	for i := range mks {
		mks[i] = randomRequest(uint64(i)*104729 + 3)
		wants[i] = referenceRun(mks[i]())
	}
	var hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine()
			for r := 0; r < rounds; r++ {
				for k := 0; k < reqs; k++ {
					i := (k + w) % reqs
					if got := e.Run(mks[i]()); !reflect.DeepEqual(got, wants[i]) {
						t.Errorf("worker %d request %d: hit=%v, result %+v, want %+v", w, i, e.MemoHit(), got, wants[i])
						return
					}
					if e.MemoHit() {
						hits.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no run hit the shared memo")
	}
}

// The shapes of a random Result's IssueOrder in FuzzMemoEntry, chosen by
// its shape byte. Under RecordedOrder the order always covers the recorded
// probe block, perturbed.
const (
	orderPerturbed = iota // the identity, 30% of positions random
	orderPermuted         // a true permutation
	orderIdentity         // packs in width 0 under Dataflow
	orderReversed         // a reversed block: wide offsets of both signs
	orderWide             // position 65535 at index 0: a 17-bit offset
	orderEmpty
	orderShapes
)

// FuzzMemoEntry checks the entry format round trip: decoding an encoded
// Result for a random request — a real simulation's and a random one,
// IssueOrder bit-packed under Dataflow and run-length coded against the
// request's recorded order or the identity otherwise — gives back the same
// Result.
func FuzzMemoEntry(f *testing.F) {
	for _, s := range []uint64{1, 7, 42, 1 << 40} {
		f.Add(s, s^0x9e3779b9, byte(s))
	}
	dataflow := uint64(1)
	for randomRequest(dataflow)().Policy != Dataflow {
		dataflow++
	}
	for shape := byte(0); shape < orderShapes; shape++ {
		f.Add(dataflow, uint64(shape), shape)
	}
	f.Fuzz(func(t *testing.T, reqSeed, resSeed uint64, shape byte) {
		req := randomRequest(reqSeed)()
		check := func(what string, res Result) {
			b := appendResult(nil, &req, &res)
			// Decode into buffers holding stale values, as an engine's do.
			got := Result{Cycles: 1, Reordered: 1, IterEnd: []int{7, 7, 7}, IssueOrder: []uint16{7, 7, 7, 7}}
			got.FUBusy[0] = 1
			if decodeResult(b, &req, &got); !reflect.DeepEqual(got, res) {
				t.Fatalf("%s: round trip of %+v gave %+v", what, res, got)
			}
		}
		check("simulated", simulate(req))

		rng := xrand.New(resSeed)
		num := func() int { return rng.Intn(1<<20) - 1<<19 }
		res := Result{Cycles: num(), Reordered: num(), Issued: num(), LoadStallCycles: num(),
			StallDataCycles: num(), StallFUCycles: num(), StallFetchCycles: num()}
		for f := range res.FUBusy {
			res.FUBusy[f] = rng.Uint64() >> rng.Intn(64)
		}
		res.IterEnd = make([]int, rng.Intn(12))
		for i := range res.IterEnd {
			res.IterEnd[i] = num()
		}
		res.IssueOrder = randomOrder(rng, &req, shape%orderShapes)
		check(fmt.Sprintf("random, shape %d", shape%orderShapes), res)
	})
}

// randomOrder draws an IssueOrder of the given shape for req.
func randomOrder(rng *xrand.Rand, req *Request, shape byte) []uint16 {
	n := 1 + rng.Intn(200)
	switch {
	case req.Policy == RecordedOrder:
		n, shape = len(req.Order), orderPerturbed // the probe block the order covers
	case shape == orderEmpty:
		n = 0
	}
	order := make([]uint16, n)
	for k := range order {
		order[k] = uint16(orderBase(req, k))
	}
	switch shape {
	case orderPerturbed:
		for k := range order {
			if rng.Bool(0.3) {
				order[k] = uint16(rng.Intn(1 << 16))
			}
		}
	case orderPermuted:
		for k := n - 1; k > 0; k-- {
			j := rng.Intn(k + 1)
			order[k], order[j] = order[j], order[k]
		}
	case orderReversed:
		slices.Reverse(order)
	case orderWide:
		order[0] = 65535
	}
	return order
}
