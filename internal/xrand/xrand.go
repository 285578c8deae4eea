// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator. Every benchmark, workload mix and
// experiment derives its randomness from a named seed so that all results are
// bit-reproducible across runs and platforms.
package xrand

// Rand is a xoshiro256** generator seeded via splitmix64. The zero value is
// not usable; construct with New or NewString.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// NewString returns a generator seeded from a string name (FNV-1a hash).
// Identical names always produce identical streams.
func NewString(name string) *Rand {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return New(h)
}

// State returns the generator's internal state: two generators with equal
// states produce equal streams.
func (r *Rand) State() [4]uint64 { return r.s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Pick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. Zero-total weights pick index 0.
func (r *Rand) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Fork derives an independent generator from this one, labelled by name so
// that forks with different labels never collide.
func (r *Rand) Fork(name string) *Rand {
	base := r.Uint64()
	sub := NewString(name)
	return New(base ^ sub.Uint64())
}
