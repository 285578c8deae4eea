package pipeline

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// The result memo. Steady-state loop traces repeat exactly — the property
// the paper's Schedule Cache exploits — and so do the simulator's own
// measurements of them: a cluster run re-measures the same trace, under the
// same cache conditions and rng draws, many times over, and different runs
// of one process (the mixes of a sweep, the requests of a server) measure
// the same suite traces again. One memo per process, shared by every owned
// Engine, remembers recent requests by their full resolved content and
// answers an exact repeat without simulating. Matching is exact: the hash
// only picks a shard and a map slot, and every hit compares the stored
// encoded inputs with the request's byte for byte.
//
// Most requests never repeat, so a key's first sighting stores nothing but
// a 32-bit fingerprint in its shard's fixed admission array; the second
// sighting simulates again and stores the result; later ones hit. The array
// is set-associative: a fingerprint not in its 8-way bucket goes in at the
// front, pushing the bucket's oldest out, so up to eight keys that share a
// bucket are all admitted on their second sighting instead of overwriting
// each other's fingerprint every time. A fingerprint shared by two keys can
// only admit a key early, never serve a wrong result.
//
// An entry is one string: the length of the encoded inputs, the inputs, and
// the encoded Result. Load latencies and fetch gates are run-length coded,
// the recorded order is stored as offsets from position, and IssueOrder as
// offsets from the identity (from the recorded order under RecordedOrder),
// bit-packed under Dataflow and run-length coded otherwise. At bench scale
// an entry averages about 250, 70 and 320 bytes under Dataflow,
// ProgramOrder and RecordedOrder. A hit decodes into the engine's result
// buffers, so on an owned Engine it allocates nothing.

const (
	// memoShards spreads the memo over independently locked shards, chosen
	// by input hash.
	memoShards = 64
	// memoSeenBuckets and memoSeenWays shape each shard's first-sighting
	// array: 64 × 128 × 8 × 4 bytes = 256 KiB of fingerprints for the
	// whole process.
	memoSeenBuckets = 128
	memoSeenWays    = 8
	// memoBudget bounds the memo's bytes: each entry is charged its length
	// plus memoEntryCharge for its map slot and allocation rounding, and a
	// shard is cleared when a new entry would overflow its share. It is the
	// smallest whole quarter MiB whose share holds a bench-scale Figure
	// 7/8/9b sweep: with every repeat admitted, its 18,570 entries are
	// charged 4.08 MiB, 76.4 KiB in the largest shard, and the share is
	// 80 KiB. At 4 MiB (a 64 KiB share) warm sweeps kept clearing shards
	// and answered only 79% of their runs from the memo.
	memoBudget      = 5 << 20
	memoEntryCharge = 64
	// memoIdleDelay is how long the memo outlives the last memoized Run.
	// Warm servers fill it during set-up and then serve without
	// simulating; without the release, miragebench's serve-warm and
	// fleet-warm maxrss_mb rose 10% and 16%.
	memoIdleDelay = time.Second
)

// memoHash hashes the encoded inputs: a word-at-a-time mix through
// splitmix64's finalizer. The hash only picks shards, buckets, map slots
// and fingerprints, so it cannot change any result; it is fixed rather
// than seeded per process so that which keys share a fingerprint bucket,
// and with it a serial run's <core>.memo_hits counts, are the same in
// every run.
func memoHash(b []byte) uint64 {
	h := 0x9e3779b97f4a7c15 ^ uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(b))
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	return mix64(h ^ tail)
}

func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// memoKey is the fixed-size part of a request's identity. The trace and
// dependence graph are held as pointers, not addresses: a live entry keeps
// them reachable, so no other trace can ever reuse their address. sum
// hashes the encoded inputs, which the entry holds in full.
type memoKey struct {
	trace *trace.Trace
	deps  *trace.DepGraph
	sum   uint64
}

type memoShard struct {
	mu    sync.Mutex
	m     map[memoKey]string
	bytes int                                   // charged bytes of m's entries
	seen  [memoSeenBuckets][memoSeenWays]uint32 // first-sighting fingerprints, newest first
}

var memo [memoShards]memoShard

// shard returns the key's shard, the bucket of its first-sighting
// fingerprint there, and the fingerprint (never zero, the empty way).
func (k memoKey) shard() (sh *memoShard, bucket int, fp uint32) {
	return &memo[k.sum%memoShards], int(k.sum/memoShards) % memoSeenBuckets, uint32(k.sum>>32) | 1
}

// ResetMemo empties the process-wide memo, first sightings included, and
// the memory hierarchy's walk memo (mem.ResetWalkMemo), so every request
// simulates again as in a fresh process.
func ResetMemo() {
	mem.ResetWalkMemo()
	for i := range memo {
		sh := &memo[i]
		sh.mu.Lock()
		sh.m, sh.bytes = nil, 0
		clear(sh.seen[:])
		sh.mu.Unlock()
	}
}

// memoKeyOf encodes the normalized request's inputs into e.keyBuf and
// returns the key: the six fixed fields (policy, iterations, width, window,
// probe span, penalty), the recorded order as offsets from position, the
// resolved load latencies run-length coded, the branch outcomes as bits,
// and the fetch gates run-length coded. The trace (in the key) and the
// fixed fields determine every section's length, so equal bytes under one
// key mean equal inputs. A request with a FetchGate encodes a gate per
// iteration, zeros included, and one without encodes none: even zero gates
// hold the next iteration's dispatch until the branch issues, so the two
// must not match, and the last section's emptiness tells them apart.
func (e *Engine) memoKeyOf(req *Request) memoKey {
	b := append(e.keyBuf[:0], byte(req.Policy))
	for _, v := range [...]int{req.Iterations, req.Width, req.Window, req.ProbeSpan, req.MispredictPenalty} {
		b = binary.AppendVarint(b, int64(v))
	}
	if req.Policy == RecordedOrder {
		for k, p := range req.Order {
			b = binary.AppendVarint(b, int64(p)-int64(k))
		}
	}
	b = appendIntRuns(b, e.lats)
	var bits byte
	for i, m := range e.miss {
		if m {
			bits |= 1 << (i % 8)
		}
		if i%8 == 7 || i == len(e.miss)-1 {
			b = append(b, bits)
			bits = 0
		}
	}
	b = appendIntRuns(b, e.gates)
	e.keyBuf = b
	return memoKey{trace: req.Trace, deps: req.Deps, sum: memoHash(b)}
}

// recall decodes into res the result stored for key, if its inputs equal
// e.keyBuf, reusing res's slices.
func (e *Engine) recall(key memoKey, req *Request, res *Result) bool {
	sh, _, _ := key.shard()
	sh.mu.Lock()
	ent, ok := sh.m[key]
	sh.mu.Unlock()
	if !ok {
		return false
	}
	r := memoReader(ent)
	if n := r.uvarint(); n != uint64(len(e.keyBuf)) || string(r[:n]) != string(e.keyBuf) {
		return false
	}
	decodeResult(string(r[len(e.keyBuf):]), req, res)
	return true
}

// remember records a simulated request: a fingerprint on the key's first
// sighting, an entry of e.keyBuf and res on a later one (replacing any
// entry under key, whose inputs then differ or are being re-audited). A
// shard that the entry would push over its share of memoBudget is cleared
// first; an entry larger than a whole share is not stored.
func (e *Engine) remember(key memoKey, req *Request, res *Result) {
	sh, bucket, fp := key.shard()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, stored := sh.m[key]
	if !stored && !sh.sighted(bucket, fp) {
		return
	}
	b := binary.AppendUvarint(e.entBuf[:0], uint64(len(e.keyBuf)))
	b = appendResult(append(b, e.keyBuf...), req, res)
	e.entBuf = b
	if stored {
		sh.bytes -= len(old) + memoEntryCharge
		delete(sh.m, key)
	}
	cost := len(b) + memoEntryCharge
	if cost > memoBudget/memoShards {
		return
	}
	if sh.bytes+cost > memoBudget/memoShards {
		clear(sh.m)
		sh.bytes = 0
	}
	if sh.m == nil {
		sh.m = make(map[memoKey]string)
	}
	sh.m[key] = string(b)
	sh.bytes += cost
}

// sighted reports whether fp is in its bucket, and puts it in at the front
// if not.
func (sh *memoShard) sighted(bucket int, fp uint32) bool {
	ways := &sh.seen[bucket]
	for _, w := range ways {
		if w == fp {
			return true
		}
	}
	copy(ways[1:], ways[:])
	ways[0] = fp
	return false
}

// appendIntRuns run-length codes vs as (value, run length) varint pairs.
// The decoder knows len(vs) from elsewhere.
func appendIntRuns(b []byte, vs []int) []byte {
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		b = binary.AppendVarint(b, int64(vs[i]))
		b = binary.AppendUvarint(b, uint64(j-i))
		i = j
	}
	return b
}

// orderBase is the value IssueOrder[k] is coded relative to: the recorded
// order's k-th position under RecordedOrder, whose IssueOrder covers the
// same probe block, and k itself otherwise.
func orderBase(req *Request, k int) int64 {
	if req.Policy == RecordedOrder {
		return int64(req.Order[k])
	}
	return int64(k)
}

// appendResult encodes res: the scalar fields as varints, IterEnd's length
// and deltas, and IssueOrder's length and then its offsets from orderBase,
// bit-packed under Dataflow and run-length coded otherwise. An OoO order
// moves almost every instruction, by a few places, so its runs are about
// one long; an in-order one is the identity or its recorded order save a
// few places, moved far.
func appendResult(b []byte, req *Request, res *Result) []byte {
	for _, v := range [...]int{res.Cycles, res.Reordered, res.Issued, res.LoadStallCycles,
		res.StallDataCycles, res.StallFUCycles, res.StallFetchCycles} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range res.FUBusy {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(res.IterEnd)))
	prev := 0
	for _, v := range res.IterEnd {
		b = binary.AppendVarint(b, int64(v-prev))
		prev = v
	}
	b = binary.AppendUvarint(b, uint64(len(res.IssueOrder)))
	if req.Policy == Dataflow {
		return appendPackedOrder(b, res.IssueOrder)
	}
	for k := 0; k < len(res.IssueOrder); {
		off := int64(res.IssueOrder[k]) - orderBase(req, k)
		j := k + 1
		for j < len(res.IssueOrder) && int64(res.IssueOrder[j])-orderBase(req, j) == off {
			j++
		}
		b = binary.AppendVarint(b, off)
		b = binary.AppendUvarint(b, uint64(j-k))
		k = j
	}
	return b
}

// appendPackedOrder codes order as one byte w, the bit width of its widest
// zig-zag offset order[k] − k, and then every zig-zag offset in w bits,
// least significant bit first. An offset of a uint16 position needs at
// most 17 bits.
func appendPackedOrder(b []byte, order []uint16) []byte {
	var all uint64
	for k, p := range order {
		all |= zigzag(int64(p) - int64(k))
	}
	w := uint(bits.Len64(all))
	b = append(b, byte(w))
	var acc uint64 // pending bits, fewer than 8 between offsets
	var n uint
	for k, p := range order {
		acc |= zigzag(int64(p)-int64(k)) << n
		for n += w; n >= 8; n -= 8 {
			b = append(b, byte(acc))
			acc >>= 8
		}
	}
	if n > 0 {
		b = append(b, byte(acc))
	}
	return b
}

// zigzag maps small offsets of either sign to small codes, as
// binary.AppendVarint does.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// memoReader reads an entry's varints and packed order. Entries come only
// from the encoders above, so a malformed one is a bug, and reading past
// its end panics.
type memoReader string

func (r *memoReader) uvarint() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		c := (*r)[0]
		*r = (*r)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

func (r *memoReader) varint() int64 { return unzigzag(r.uvarint()) }

// unzigzag undoes zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// packedOrder fills order from the code appendPackedOrder wrote.
func (r *memoReader) packedOrder(order []uint16) {
	w := uint((*r)[0])
	*r = (*r)[1:]
	mask := uint64(1)<<w - 1
	var acc uint64
	var n uint
	for k := range order {
		for ; n < w; n += 8 {
			acc |= uint64((*r)[0]) << n
			*r = (*r)[1:]
		}
		u := acc & mask
		acc >>= w
		n -= w
		order[k] = uint16(int64(k) + unzigzag(u))
	}
}

// decodeResult decodes into res a result appended by appendResult for req,
// reusing res's slices as buffers.
func decodeResult(ent string, req *Request, res *Result) {
	r := memoReader(ent)
	*res = Result{IterEnd: res.IterEnd, IssueOrder: res.IssueOrder}
	for _, p := range [...]*int{&res.Cycles, &res.Reordered, &res.Issued, &res.LoadStallCycles,
		&res.StallDataCycles, &res.StallFUCycles, &res.StallFetchCycles} {
		*p = int(r.varint())
	}
	for f := range res.FUBusy {
		res.FUBusy[f] = r.uvarint()
	}
	res.IterEnd = resize(res.IterEnd, int(r.uvarint()))
	prev := 0
	for i := range res.IterEnd {
		prev += int(r.varint())
		res.IterEnd[i] = prev
	}
	res.IssueOrder = resize(res.IssueOrder, int(r.uvarint()))
	if req.Policy == Dataflow {
		r.packedOrder(res.IssueOrder)
		return
	}
	for k := 0; k < len(res.IssueOrder); {
		off := r.varint()
		for run := r.uvarint(); run > 0; run-- {
			res.IssueOrder[k] = uint16(orderBase(req, k) + off)
			k++
		}
	}
}

// auditMemo checks, under -audit, that a memoized result equals a fresh
// simulation of the same inputs: a stale or corrupted entry would otherwise
// be served to every later repeat.
func (e *Engine) auditMemo(req *Request, stored, fresh *Result) {
	where := req.AuditLabel
	if where == "" {
		where = "pipeline"
	}
	req.Audit.Checkf(reflect.DeepEqual(*stored, *fresh), "pipeline.memo", where,
		"memoized result for trace %d differs from a fresh simulation: cycles %d, want %d",
		req.Trace.ID, stored.Cycles, fresh.Cycles)
}

// The idle release. Warm servers fill the memo while they set up and then
// serve for a long time without simulating; a memo nobody consults is only
// memory. The first memoized Run arms a timer (an AfterFunc, so no
// goroutine waits while the memo is empty); when it fires it drops the memo
// if no memoized Run happened for memoIdleDelay, and otherwise re-arms
// itself for the remaining time.
var memoIdle struct {
	armed atomic.Bool
	last  atomic.Int64 // memoClock at the last memoized Run
	timer *time.Timer
}

var memoEpoch = time.Now()

// memoSkew is added to the idle clock; tests advance it instead of
// sleeping.
var memoSkew atomic.Int64

// memoClock reads the idle clock in nanoseconds.
func memoClock() int64 { return int64(time.Since(memoEpoch)) + memoSkew.Load() }

func init() {
	memoIdle.timer = time.AfterFunc(memoIdleDelay, releaseIdleMemo)
	memoIdle.timer.Stop()
}

// touchMemo records a memoized Run and arms the idle timer if it is not.
func touchMemo() {
	memoIdle.last.Store(memoClock())
	if !memoIdle.armed.Load() && memoIdle.armed.CompareAndSwap(false, true) {
		memoIdle.timer.Reset(memoIdleDelay)
	}
}

// releaseIdleMemo runs on the idle timer.
func releaseIdleMemo() {
	last := memoIdle.last.Load()
	if idle := time.Duration(memoClock() - last); idle < memoIdleDelay {
		memoIdle.timer.Reset(memoIdleDelay - idle)
		return
	}
	memoIdle.armed.Store(false)
	ResetMemo()
	// A Run that slipped in since the idle check may have stored an entry
	// without arming: keep watching it.
	if memoIdle.last.Load() != last && memoIdle.armed.CompareAndSwap(false, true) {
		memoIdle.timer.Reset(memoIdleDelay)
	}
}
