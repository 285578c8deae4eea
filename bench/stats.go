package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 from 200 samples rests on two values and is noise.
const minBeyond = 10

// median is the middle of xs (the mean of the two middle values for even
// lengths), matching Python's statistics.median. It is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (the ceil(q*n)-th
// smallest value) and whether it may be reported: at least minBeyond
// samples rank above it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sortedCopy(xs)[rank-1], n-rank >= minBeyond
}

// quartiles returns the first and third quartiles of xs by Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), the rule
// the benchmark's spread is judged by. Fewer than two samples have no
// spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// iqr is the distance between the quartiles of xs.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// allowed is how far a metric may worsen from base before the change counts
// as a regression: the relative bound, but never less than the absolute
// floor.
func (m metric) allowed(base float64) float64 {
	return math.Max(m.Bound*math.Abs(base), m.Floor)
}

// gain is how much better change reads than base, in the metric's unit
// (negative when worse).
func (m metric) gain(base, change float64) float64 {
	if m.Better == "higher" {
		return change - base
	}
	return base - change
}

// regressed reports whether change is worse than base by more than the
// metric's bound allows.
func (m metric) regressed(base, change float64) bool {
	return -m.gain(base, change) > m.allowed(base)
}

// timedFrom applies the open-loop timing rule to one request. due is when
// the schedule said to send it, connFree when the connection's previous
// request completed, and sent when it actually went out. A request whose
// connection was still busy at its due time waited on the system, so it is
// timed from due. On an idle connection any delay past due is the
// generator's own timer overshoot: the request is timed from sent and the
// overshoot is returned as lateness.
func timedFrom(due, connFree, sent time.Duration) (start, lateness time.Duration) {
	if connFree > due {
		return due, 0
	}
	if sent < due {
		sent = due
	}
	return sent, sent - due
}
