package pipeline

import (
	"encoding/binary"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// memoEntries counts the memo's stored entries for tr.
func memoEntries(tr *trace.Trace) int {
	n := 0
	for i := range memo {
		sh := &memo[i]
		sh.mu.Lock()
		for k := range sh.m {
			if k.trace == tr {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// rewriteMemo is the test hook that corrupts stored entries: it decodes
// every entry stored for req's trace, lets f change its encoded inputs and
// result, and stores the re-encoded entry under the same key.
func rewriteMemo(t *testing.T, req Request, f func(in []byte, res *Result)) {
	t.Helper()
	stored := 0
	for i := range memo {
		sh := &memo[i]
		sh.mu.Lock()
		for k, ent := range sh.m {
			if k.trace != req.Trace {
				continue
			}
			r := memoReader(ent)
			n := r.uvarint()
			in := []byte(r[:n])
			res := decodeResult(string(r[n:]), &req)
			f(in, &res)
			b := appendResult(append(binary.AppendUvarint(nil, n), in...), &req, &res)
			sh.m[k] = string(b)
			stored++
		}
		sh.mu.Unlock()
	}
	if stored == 0 {
		t.Fatalf("no memo entry stored for trace %d", req.Trace.ID)
	}
}

// TestMemoHitMatchesReference runs every random request three times on one
// engine, each time from a fresh factory so stateful callbacks replay the
// same draws. The first sighting stores only a fingerprint, the second
// stores the result, and the third must be answered from the memo with the
// reference engine's result, in slices the caller owns.
func TestMemoHitMatchesReference(t *testing.T) {
	ResetMemo()
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
	ResetMemo()
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
		want := Run(req)
		for i := 0; i < 3; i++ {
			got := e.Run(req)
			if hit := i == 2; e.MemoHit() != hit {
				t.Errorf("%s run %d: hit=%v, want %v", name, i+1, e.MemoHit(), hit)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s run %d: memoized engine %+v, pooled run %+v", name, i+1, got, want)
			}
		}
	}
	if n := memoEntries(tr); n != len(variants) {
		t.Errorf("memo holds %d entries for %d distinct requests", n, len(variants))
	}
}

// TestMemoComparesInputs plants an entry whose stored inputs differ from
// the request's under the same key, as a hash collision would: the engine
// must simulate rather than serve it.
func TestMemoComparesInputs(t *testing.T) {
	ResetMemo()
	tr := blockedChains(2, 5)
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4,
		Policy: ProgramOrder, Width: isa.IssueWidth,
		LoadLatency: func(int) int { return 3 }, FetchGate: func(int) int { return 1 }}
	e := NewEngine()
	want := e.Run(req)
	e.Run(req)
	rewriteMemo(t, req, func(in []byte, res *Result) {
		in[len(in)-1]++
		res.Cycles++
	})
	if got := e.Run(req); e.MemoHit() || !reflect.DeepEqual(got, want) {
		t.Fatalf("entry with different inputs served: hit=%v %+v", e.MemoHit(), got)
	}
}

// TestMemoBounded pins the memo's byte budget: every shard's charged bytes
// stay within its share of memoBudget and match its entries, and storing
// more distinct results than the budget holds clears shards instead of
// growing.
func TestMemoBounded(t *testing.T) {
	if memoBudget != 4<<20 || memoEntryCharge != 64 {
		t.Fatalf("memoBudget %d, memoEntryCharge %d: the measured memory bound assumes 4 MiB and 64", memoBudget, memoEntryCharge)
	}
	ResetMemo()
	tr := serialChain(3)
	deps := trace.BuildDepGraph(tr)
	e := NewEngine()
	const keys = 60_000 // ~100 charged bytes each: more than 4 MiB holds
	for i := 0; i < keys; i++ {
		req := Request{Trace: tr, Deps: deps, Iterations: 2, Policy: ProgramOrder,
			Width: isa.IssueWidth, MispredictPenalty: i}
		e.Run(req)
		e.Run(req)
	}
	total := 0
	for i := range memo {
		sh := &memo[i]
		charged := 0
		for _, ent := range sh.m {
			charged += len(ent) + memoEntryCharge
		}
		if charged != sh.bytes || sh.bytes > memoBudget/memoShards {
			t.Fatalf("shard %d: charged %d bytes, accounts %d, share %d", i, charged, sh.bytes, memoBudget/memoShards)
		}
		total += len(sh.m)
	}
	if total == 0 || total >= keys {
		t.Fatalf("memo holds %d entries after %d stored: want some, and shards cleared", total, keys)
	}
}

// TestAuditCatchesCorruptMemo corrupts a stored entry and requires the
// audited repeat to simulate afresh, flag the entry and return the fresh
// result; an uncorrupted memo audits clean.
func TestAuditCatchesCorruptMemo(t *testing.T) {
	ResetMemo()
	tr := blockedChains(3, 6)
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 6,
		Policy: Dataflow, Width: isa.IssueWidth, Window: isa.ROBSize}
	e := NewEngine()
	want := e.Run(req)
	e.Run(req) // the second sighting stores the result

	clean := invariant.New(nil)
	audited := req
	audited.Audit, audited.AuditLabel = clean, "memo-test"
	if e.Run(audited); e.MemoHit() || clean.Total() != 0 {
		t.Fatalf("audited repeat: hit=%v, violations %v", e.MemoHit(), clean.Err())
	}

	rewriteMemo(t, req, func(_ []byte, res *Result) {
		res.Cycles++
		res.IterEnd[len(res.IterEnd)-1]++
	})
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

// TestMemoSharedAcrossEngines: what one engine stores, another hits — the
// memo belongs to the process, not to an engine.
func TestMemoSharedAcrossEngines(t *testing.T) {
	ResetMemo()
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
	ResetMemo()
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

// TestMemoIdleRelease advances the idle clock instead of sleeping: a hit
// counts as use, the memo survives less than memoIdleDelay without a
// memoized Run, is dropped after it, and the next Run re-arms the timer.
func TestMemoIdleRelease(t *testing.T) {
	ResetMemo()
	tr := blockedChains(2, 4)
	req := Request{Trace: tr, Deps: trace.BuildDepGraph(tr), Iterations: 4, Policy: ProgramOrder}
	e := NewEngine()
	e.Run(req)
	e.Run(req)
	if !memoIdle.armed.Load() {
		t.Fatal("a memoized Run left the idle timer unarmed")
	}

	memoSkew.Add(int64(memoIdleDelay * 3 / 5))
	if e.Run(req); !e.MemoHit() {
		t.Fatal("the third sighting missed the memo")
	}
	memoSkew.Add(int64(memoIdleDelay * 3 / 5))
	releaseIdleMemo()
	if memoEntries(tr) != 1 {
		t.Fatalf("the memo was released %v after its last hit", memoIdleDelay*3/5)
	}

	memoSkew.Add(int64(memoIdleDelay))
	releaseIdleMemo()
	if n := memoEntries(tr); n != 0 || memoIdle.armed.Load() {
		t.Fatalf("after the idle delay: %d entries, armed=%v; want released and disarmed", n, memoIdle.armed.Load())
	}
	if e.Run(req); e.MemoHit() || !memoIdle.armed.Load() {
		t.Fatalf("first Run after the release: hit=%v armed=%v; want a miss that re-arms", e.MemoHit(), memoIdle.armed.Load())
	}
}

// FuzzMemoEntry checks the entry format round trip: decoding an encoded
// Result for a random request — a real simulation's and a random one,
// IssueOrder coded against the request's recorded order or the identity —
// gives back the same Result.
func FuzzMemoEntry(f *testing.F) {
	for _, s := range []uint64{1, 7, 42, 1 << 40} {
		f.Add(s, s^0x9e3779b9)
	}
	f.Fuzz(func(t *testing.T, reqSeed, resSeed uint64) {
		req := randomRequest(reqSeed)()
		check := func(what string, res Result) {
			b := appendResult(nil, &req, &res)
			if got := decodeResult(string(b), &req); !reflect.DeepEqual(got, res) {
				t.Fatalf("%s: round trip of %+v gave %+v", what, res, got)
			}
		}
		check("simulated", Run(req))

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
		n := rng.Intn(200)
		if req.Policy == RecordedOrder {
			n = len(req.Order) // the probe block the order covers
		}
		res.IssueOrder = make([]uint16, n)
		for k := range res.IssueOrder {
			res.IssueOrder[k] = uint16(orderBase(&req, k))
			if rng.Bool(0.3) {
				res.IssueOrder[k] = uint16(rng.Intn(1 << 16))
			}
		}
		check("random", res)
	})
}

// TestMemoHashFixed pins the input hash to fixed values: a per-process
// seed would make fingerprint clashes, and so the memo_hits counters of
// identical serial runs, differ from process to process.
func TestMemoHashFixed(t *testing.T) {
	for in, want := range map[string]uint64{
		"":                             0xe220a8397b1dcdaf,
		"mirage":                       0xaf4152d4688ca3db,
		"an exact repeat of a request": 0x57e69d32b208c472,
	} {
		if got := memoHash([]byte(in)); got != want {
			t.Errorf("memoHash(%q) = %#x, want %#x", in, got, want)
		}
	}
}
