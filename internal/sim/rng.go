// Package sim provides the low-level simulation substrate shared by every
// simulator in this repository: a deterministic pseudo-random number
// generator suitable for reproducible parallel experiments, a cycle clock,
// and small scheduling helpers.
//
// All simulators here are cycle-driven rather than event-driven: network
// routers are synchronous pipelines, so advancing every component one cycle
// at a time is both simpler and faster than a global event queue.
package sim

import "math"

// RNG is a deterministic xoshiro256** pseudo-random number generator.
//
// The zero value is NOT usable; construct with NewRNG. Each experiment
// derives its own RNG from a seed so that sweeps are reproducible and
// independent runs can execute concurrently without sharing state
// (math/rand's global source would serialize goroutines on a lock).
type RNG struct {
	s [4]uint64
}

// splitMix64 advances the given state and returns the next SplitMix64
// output. It is used only to seed xoshiro from a single word.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given value. Distinct seeds
// yield statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro requires a nonzero state; SplitMix64 of any seed provides one,
	// but guard against the astronomically unlikely all-zero case anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// xoshiro is one xoshiro256** step: the output of state s0..s3 and the
// state after it.
func xoshiro(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return x, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NextBernoulli makes the draws Bernoulli(p) makes for trials i, i+1, …,
// n-1 in turn, stops at the first success and returns its index, or n if
// every trial fails; the generator ends where those calls leave it. It
// steps the state held in locals, not through r, and compares
// Uint64()>>11 < ceil(p·2^53), which is Float64() < p exactly: p·2^53 is
// exact, and the draw is an integer.
func (r *RNG) NextBernoulli(p float64, i, n int) int {
	if p <= 0 {
		return n
	}
	if p >= 1 {
		return min(i, n)
	}
	var limit uint64 // stays 0 for NaN p, which every Float64() < p fails
	if p > 0 {
		limit = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; i < n; i++ {
		var x uint64
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		if x>>11 < limit {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return i
}

// Geometric returns a geometrically distributed integer >= 1 with success
// probability p in (0, 1]: the number of Bernoulli(p) trials up to and
// including the first success. It panics if p <= 0.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 {
		panic("sim: Geometric with non-positive p")
	}
	if p >= 1 {
		return 1
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return 1 + int(math.Log(u)/math.Log(1-p))
}

// Split returns a new RNG whose stream is independent of r's.
// It is used to hand child components their own generators.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}
