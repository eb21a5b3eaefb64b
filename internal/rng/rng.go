// Package rng provides small, fast, deterministic pseudo-random number
// generators used by the workload generators and benchmarks.
//
// Everything in this repository that involves randomness takes an explicit
// seed and goes through this package, so experiments and tests are exactly
// reproducible across runs and machines. The generators are also trivially
// splittable: parallel loops derive an independent stream per index with
// At/Stream, which avoids any shared mutable state between goroutines.
package rng

import "math/bits"

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood.
// It passes BigCrush, has a period of 2^64, and — most importantly here —
// is stateless enough that hashing an arbitrary counter value produces an
// independent-looking stream, which is what parallel generators need.
type SplitMix64 struct {
	state uint64
}

// New returns a SplitMix64 seeded with seed.
func New(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// NextAt returns the value the k'th call to Next on New(seed) returns
// (k from 0), without making the calls before it: splitmix64's state
// after k+1 steps is seed + (k+1)·γ. A parallel sampler that must
// reproduce one sequential stream exactly reads its draws this way.
func NextAt(seed, k uint64) uint64 {
	return Hash64(seed + k*0x9e3779b97f4a7c15)
}

// Next returns the next value in the stream.
func (r *SplitMix64) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// mix is the splitmix64 finalizer: a bijective scrambling of a 64-bit word.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 hashes an arbitrary 64-bit value to a uniform 64-bit value.
// Hash64(seed+i) for i = 0,1,2,... yields streams that are independent for
// practical purposes, which makes it safe to call from parallel loops.
func Hash64(x uint64) uint64 {
	return mix(x + 0x9e3779b97f4a7c15)
}

// At returns the i'th value of the stream identified by seed without
// generating the preceding values. It is the parallel-friendly counterpart
// of Next.
func At(seed, i uint64) uint64 {
	return Hash64(seed*0x9e3779b97f4a7c15 + i + 1)
}

// Uint64 returns the next value in the stream (alias of Next, for
// readability at call sites that mix widths).
func (r *SplitMix64) Uint64() uint64 { return r.Next() }

// UintN returns a uniform value in [0, n). n must be positive.
// It uses Lemire's multiply-shift reduction, which is unbiased enough for
// workload generation (the bias is < 2^-32 for the n used here).
func (r *SplitMix64) UintN(n uint64) uint64 {
	if n == 0 {
		panic("rng: UintN(0)")
	}
	return mulHi(r.Next(), n)
}

// IntN returns a uniform int in [0, n). n must be positive.
func (r *SplitMix64) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN with non-positive n")
	}
	return int(r.UintN(uint64(n)))
}

// Range returns a uniform value in [lo, hi). Requires lo < hi.
func (r *SplitMix64) Range(lo, hi int) int {
	if lo >= hi {
		panic("rng: empty Range")
	}
	return lo + r.IntN(hi-lo)
}

// Float64 returns a uniform value in [0, 1).
func (r *SplitMix64) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// UintNAt is the stateless counterpart of UintN: the i'th value in [0, n)
// of the stream identified by seed.
func UintNAt(seed, i, n uint64) uint64 {
	if n == 0 {
		panic("rng: UintNAt(0)")
	}
	return mulHi(At(seed, i), n)
}

// mulHi returns the high 64 bits of x*n, i.e. floor(x*n / 2^64), which maps
// a uniform 64-bit x to a uniform value in [0, n).
func mulHi(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}
