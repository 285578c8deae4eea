package pipeline

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"slices"

	"repro/internal/memo"
	"repro/internal/trace"
)

// The result memo. Steady-state loop traces repeat exactly — the property
// the paper's Schedule Cache exploits — and so do the simulator's own
// measurements of them: a cluster run re-measures the same trace, under the
// same cache conditions and rng draws, many times over, and different runs
// of one process (the mixes of a sweep, the requests of a server) measure
// the same suite traces again. One memo per process, shared by every owned
// Engine, remembers recent requests by their full resolved content and
// answers an exact repeat without simulating.
//
// The memo is a memo.Table, which owns admission, the arena, the budget and
// the reset. Its entries all sit at the root: the owner is the request's
// trace and dependence graph, the key the encoded inputs, and the value the
// encoded Result. Load latencies and fetch gates are run-length coded, the recorded
// order is stored as offsets from position, and IssueOrder as offsets from
// the identity (from the recorded order under RecordedOrder), bit-packed
// under Dataflow and run-length coded otherwise. Only a probed request's
// entry carries an IssueOrder. A hit decodes into the engine's result
// buffers, so on an owned Engine it allocates nothing.

const (
	// memoSeenBuckets shapes the first-sighting filter: 8192 × 8 × 4 bytes
	// = 256 KiB of fingerprints, bucketed as the 64 shards of 128 buckets
	// the memo had before were, so <core>.memo_hits did not move.
	memoSeenBuckets = 8192
	// memoBudget bounds the memo's charged bytes: the smallest quarter MiB
	// that held a bench-scale Figure 7/8/9b sweep's entries when every
	// request stored an issue order, 18,570 of them charged 3,871,040
	// bytes (3.69 MiB). With only recording measurements probing, the
	// sweep stores 19,093 entries charged 3,314,336 bytes (3.16 MiB); the
	// headroom serves cold streams of distinct runs.
	memoBudget = 15 << 18
)

var results = memo.New[memoOwner](memoBudget, memoSeenBuckets)

// noProbeKey marks an unprobed request in the policy byte of its key.
// Policies are small, so the bit is free and leaves a probed request's key
// bytes as they are.
const noProbeKey = 0x80

// MemoStats returns the result memo's current entries and charged bytes.
func MemoStats() (entries, bytes int) { return results.Stats() }

// memoOwner is a request's trace and dependence graph. Interned, they stay
// reachable while the memo holds entries for them, so no other trace can
// reuse their address.
type memoOwner struct {
	trace *trace.Trace
	deps  *trace.DepGraph
}

// memoKeyOf encodes the normalized request's inputs into e.keyBuf and
// returns their hash: the six fixed fields (policy with noProbeKey for an
// unprobed request, iterations, width, window, probe span, penalty), the
// recorded order as offsets from position, the resolved load latencies
// run-length coded, the branch outcomes as bits, and the fetch gates
// run-length coded. The trace (the owner) and the fixed fields determine
// every section's length, so equal bytes under one owner mean equal
// inputs. A request with a FetchGate encodes a gate per iteration, zeros
// included, and one without encodes none: even zero gates hold the next
// iteration's dispatch until the branch issues, so the two must not match,
// and the last section's emptiness tells them apart.
func (e *Engine) memoKeyOf(req *Request) uint64 {
	pol := byte(req.Policy)
	if req.NoProbe {
		pol |= noProbeKey
	}
	b := append(e.keyBuf[:0], pol)
	for _, v := range [...]int{req.Iterations, req.Width, req.Window, req.ProbeSpan, req.MispredictPenalty} {
		b = binary.AppendVarint(b, int64(v))
	}
	if req.Policy == RecordedOrder {
		for k, p := range req.Order {
			b = binary.AppendVarint(b, int64(p)-int64(k))
		}
	}
	b = memo.AppendIntRuns(b, e.lats)
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
	b = memo.AppendIntRuns(b, e.gates)
	e.keyBuf = b
	return memo.Hash(b)
}

// recall decodes into res the result stored for the inputs in e.keyBuf,
// whose hash is sum, reusing res's slices.
func (e *Engine) recall(req *Request, sum uint64, res *Result) bool {
	results.Lock()
	var id uint32
	var ent []byte
	if owner, ok := results.Owner(memoOwner{req.Trace, req.Deps}, false); ok {
		id, ent = results.Find(0, owner, sum, e.keyBuf)
	}
	results.Unlock()
	if id == 0 {
		return false
	}
	decodeResult(ent, req, res)
	return true
}

// remember records a simulated request: a fingerprint on its inputs' first
// sighting, an entry of e.keyBuf and res on a later one. An entry replacing
// one the audit found wrong (stored) is added without a sighting; the newer
// entry is the one found.
func (e *Engine) remember(req *Request, sum uint64, res *Result, stored bool) {
	if !stored {
		results.Lock()
		seen := results.Sighted(sum)
		results.Unlock()
		if !seen {
			return
		}
	}
	e.entBuf = appendResult(e.entBuf[:0], req, res)
	results.Lock()
	owner, _ := results.Owner(memoOwner{req.Trace, req.Deps}, true)
	results.Add(0, owner, sum, e.keyBuf, e.entBuf)
	results.Unlock()
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
// and deltas, and for a probed request IssueOrder's length and then its
// offsets from orderBase, bit-packed under Dataflow and run-length coded
// otherwise. An OoO order moves almost every instruction, by a few places,
// so its runs are about one long; an in-order one is the identity or its
// recorded order save a few places, moved far.
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
	if req.NoProbe {
		return b
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

// unzigzag undoes zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// packedOrder fills order from the code appendPackedOrder wrote.
func packedOrder(r *memo.Reader, order []uint16) {
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
func decodeResult(ent []byte, req *Request, res *Result) {
	r := memo.Reader(ent)
	*res = Result{IterEnd: res.IterEnd, IssueOrder: res.IssueOrder}
	for _, p := range [...]*int{&res.Cycles, &res.Reordered, &res.Issued, &res.LoadStallCycles,
		&res.StallDataCycles, &res.StallFUCycles, &res.StallFetchCycles} {
		*p = int(r.Varint())
	}
	for f := range res.FUBusy {
		res.FUBusy[f] = r.Uvarint()
	}
	res.IterEnd = resize(res.IterEnd, int(r.Uvarint()))
	prev := 0
	for i := range res.IterEnd {
		prev += int(r.Varint())
		res.IterEnd[i] = prev
	}
	if req.NoProbe {
		res.IssueOrder = res.IssueOrder[:0]
		return
	}
	res.IssueOrder = resize(res.IssueOrder, int(r.Uvarint()))
	if req.Policy == Dataflow {
		packedOrder(&r, res.IssueOrder)
		return
	}
	for k := 0; k < len(res.IssueOrder); {
		off := r.Varint()
		for run := r.Uvarint(); run > 0; run-- {
			res.IssueOrder[k] = uint16(orderBase(req, k) + off)
			k++
		}
	}
}

// auditMemo checks, under -audit, that a memoized result equals a fresh
// simulation of the same inputs, and reports whether it does: a stale or
// corrupted entry would otherwise be served to every later repeat. An
// unprobed result's empty IssueOrder may be nil or not.
func (e *Engine) auditMemo(req *Request, stored, fresh *Result) bool {
	where := req.AuditLabel
	if where == "" {
		where = "pipeline"
	}
	s, f := *stored, *fresh
	same := slices.Equal(s.IssueOrder, f.IssueOrder)
	s.IssueOrder, f.IssueOrder = nil, nil
	same = same && reflect.DeepEqual(s, f)
	if !same {
		req.Audit.Violatef("pipeline.memo", where,
			"memoized result for trace %d differs from a fresh simulation: cycles %d, want %d",
			req.Trace.ID, stored.Cycles, fresh.Cycles)
	}
	return same
}
