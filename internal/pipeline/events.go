package pipeline

import "repro/internal/isa"

// calendar is a calendar queue bucketed by cycle: pending wakeup events
// (instructions whose operands become ready at a known future cycle) live in
// the bucket of their cycle. The ring covers a power-of-two horizon of
// future cycles; scheduling past the horizon grows the ring. Buckets are
// reused across runs, so the steady state allocates nothing.
type calendar struct {
	buckets [][]int32 // buckets[c&mask] holds the events of cycle c
	mask    int
	pending int // events scheduled and not yet drained
}

func (q *calendar) reset() {
	if q.buckets == nil {
		q.buckets = make([][]int32, 256)
		q.mask = 255
	}
	if q.pending > 0 {
		for i := range q.buckets {
			q.buckets[i] = q.buckets[i][:0]
		}
	}
	q.pending = 0
}

// schedule files a wakeup for idx at cycle at (strictly after now).
func (q *calendar) schedule(now, at int, idx int32) {
	if at-now > q.mask {
		q.grow(now, at-now)
	}
	q.buckets[at&q.mask] = append(q.buckets[at&q.mask], idx)
	q.pending++
}

// grow widens the ring to cover at least horizon future cycles, re-homing
// the pending events (each live bucket holds exactly one cycle's events, at
// most mask cycles ahead of now).
func (q *calendar) grow(now, horizon int) {
	size := len(q.buckets)
	for size-1 < horizon {
		size <<= 1
	}
	nb := make([][]int32, size)
	nmask := size - 1
	for off := 0; off <= q.mask; off++ {
		c := now + off
		old := q.buckets[c&q.mask]
		if len(old) > 0 {
			nb[c&nmask] = append(nb[c&nmask], old...)
		}
	}
	q.buckets = nb
	q.mask = nmask
}

// next returns the earliest cycle > now holding a pending event, or -1 if
// none are pending. Events are always within the ring horizon of now.
func (q *calendar) next(now int) int {
	if q.pending == 0 {
		return -1
	}
	for off := 1; off <= q.mask+1; off++ {
		if len(q.buckets[(now+off)&q.mask]) > 0 {
			return now + off
		}
	}
	return -1
}

// readySet is the age-ordered set of dispatched, unissued, operand-ready
// instructions: a bitmap over dynamic instruction indexes. Ascending bit
// order is age order, so oldest-ready-first selection is a find-first-set
// scan, and insert/remove are O(1) — this replaces the O(window) slice
// delete of the previous engine.
type readySet struct {
	words []uint64
	count int
}

func (s *readySet) reset(total int) {
	n := (total + 63) >> 6
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	} else {
		s.words = s.words[:n]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.count = 0
}

func (s *readySet) add(idx int) {
	s.words[idx>>6] |= 1 << (idx & 63)
	s.count++
}

func (s *readySet) remove(idx int) {
	s.words[idx>>6] &^= 1 << (idx & 63)
	s.count--
}

// maxUnits is the size of the largest functional-unit pool (isa.FUCount);
// fuState holds that many units per pool in fixed arrays.
const maxUnits = 2

// fuState tracks per-pool unit occupancy. Pipelined ops occupy a unit for
// the issue cycle only; unpipelined ops (divides) hold it for their latency.
// The same claim rule as the previous engine, on fixed arrays indexed by
// the pool prepare looked up once per static instruction.
type fuState struct {
	busyUntil [isa.NumFUs][maxUnits]int32
	issuedAt  [isa.NumFUs][maxUnits]int32
}

func (f *fuState) reset() {
	f.busyUntil = [isa.NumFUs][maxUnits]int32{}
	for u := range f.issuedAt {
		for i := range f.issuedAt[u] {
			f.issuedAt[u][i] = -1
		}
	}
}

// claim takes a unit of pool u at cycle now, holding it for hold cycles
// when hold > 0 (an unpipelined op). Returns false if no unit is free this
// cycle.
func (f *fuState) claim(u isa.FU, hold, now int32) bool {
	busy, at := &f.busyUntil[u], &f.issuedAt[u]
	for i := range isa.FUCount[u] {
		if busy[i] <= now && at[i] != now {
			at[i] = now
			if hold > 0 {
				busy[i] = now + hold
			}
			return true
		}
	}
	return false
}

// minBusyOf returns the earliest cycle > now at which some unit of pool u
// frees up. Callers only ask when every unit of the pool is busy past now.
func (f *fuState) minBusyOf(u isa.FU, now int32) int32 {
	m := int32(-1)
	for _, b := range f.busyUntil[u][:isa.FUCount[u]] {
		if b > now && (m < 0 || b < m) {
			m = b
		}
	}
	return m
}

// nextExpiry returns the earliest cycle > now at which any unit of any pool
// frees up, or -1 if every unit is already free.
func (f *fuState) nextExpiry(now int32) int32 {
	m := int32(-1)
	for u := range f.busyUntil {
		if b := f.minBusyOf(isa.FU(u), now); b >= 0 && (m < 0 || b < m) {
			m = b
		}
	}
	return m
}
