// Package semisort implements the parallel semisort primitive from the
// paper's preliminaries (§2): reorder an array of keyed elements so that
// elements with equal keys become contiguous, without fully sorting the
// keys. Julienne's theoretically-clean updateBuckets (§3.2) is built on
// it; the practical block-histogram implementation (§3.3) avoids it, and
// this repository keeps both so the ablation benchmarks can compare them.
//
// The algorithm is a hash-partitioned counting sort in the style of the
// top-down parallel semisort of Gu, Shun, Sun and Blelloch [23]:
//
//  1. hash every key into one of B ≈ n/expectedBucketSize partitions;
//  2. per-block histograms + one scan produce stable scatter offsets
//     (the same histogram kernel the bucket structure itself uses);
//  3. scatter elements to their partition;
//  4. sort each small partition by key, grouping equal keys.
//
// Equal keys share a hash, hence a partition, so after step 4 the whole
// array is semisorted. With partitions of expected constant size the work
// is O(n) in expectation and the depth is O(log n) w.h.p., matching §2.
package semisort

import (
	"slices"

	"julienne/internal/parallel"
	"julienne/internal/rng"
)

// Pair is one keyed element.
type Pair[V any] struct {
	Key   uint32
	Value V
}

// expectedBucketSize is the target number of elements per hash partition.
// Partitions are sorted sequentially, so this bounds the work of step 4
// at O(n log expectedBucketSize) = O(n) with a modest constant.
const expectedBucketSize = 48

// blockSize mirrors the M used by the bucket structure's histogram pass.
const blockSize = 2048

// Pairs semisorts pairs by Key, returning a new slice in which all pairs
// with equal keys are contiguous. The input is not modified.
func Pairs[V any](in []Pair[V]) []Pair[V] {
	out := make([]Pair[V], len(in))
	PairsInto(out, in)
	return out
}

// PairsInto semisorts in into out, which must have the same length.
func PairsInto[V any](out, in []Pair[V]) {
	n := len(in)
	if len(out) != n {
		panic("semisort: length mismatch")
	}
	if n == 0 {
		return
	}
	if n <= 2*expectedBucketSize {
		copy(out, in)
		slices.SortFunc(out, func(a, b Pair[V]) int {
			switch {
			case a.Key < b.Key:
				return -1
			case a.Key > b.Key:
				return 1
			}
			return 0
		})
		return
	}

	nbkt := nextPow2(n / expectedBucketSize)
	mask := uint32(nbkt - 1)
	// A fixed hash salt would let adversarial key sets defeat the
	// partitioning; salting with a per-call value restores the w.h.p.
	// bounds for any fixed input. Determinism is preserved because the
	// salt depends only on n.
	salt := rng.Hash64(uint64(n)*0x9e3779b97f4a7c15 + 0xabcdef)

	hash := func(k uint32) uint32 {
		return uint32(rng.Hash64(uint64(k)+salt)) & mask
	}

	nb := (n + blockSize - 1) / blockSize
	// counts is laid out partition-major: counts[j*nb + b] is the number
	// of elements of block b hashing to partition j. A single scan over
	// this layout yields, for every (partition, block), the exact start
	// offset of that block's contribution — the standard stable radix
	// scatter.
	// offsets is the scatter's working copy of counts; one borrow holds
	// both halves.
	parallel.WithScratch(2*nbkt*nb, func(both []uint32) {
		counts, offsets := both[:nbkt*nb], both[nbkt*nb:]
		parallel.For(len(counts), parallel.DefaultGrain, func(i int) { counts[i] = 0 })
		parallel.For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			for i := lo; i < hi; i++ {
				counts[int(hash(in[i].Key))*nb+b]++
			}
		})
		parallel.Scan(counts, counts)

		parallel.Blocked(len(counts), parallel.DefaultGrain, func(lo, hi int) {
			copy(offsets[lo:hi], counts[lo:hi])
		})
		parallel.For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			for i := lo; i < hi; i++ {
				slot := int(hash(in[i].Key))*nb + b
				out[offsets[slot]] = in[i]
				offsets[slot]++
			}
		})

		// Sort each partition; equal keys are now contiguous globally.
		parallel.For(nbkt, 1, func(j int) {
			start := counts[j*nb]
			var end uint32
			if j == nbkt-1 {
				end = uint32(n)
			} else {
				end = counts[(j+1)*nb]
			}
			part := out[start:end]
			slices.SortFunc(part, func(a, b Pair[V]) int {
				switch {
				case a.Key < b.Key:
					return -1
				case a.Key > b.Key:
					return 1
				}
				return 0
			})
		})
	})
}

// GroupStarts returns the start index of every maximal run of equal keys
// in a semisorted slice, in increasing index order. It is the "map an
// indicator function and pack" step of §3.2.
func GroupStarts[V any](sorted []Pair[V]) []uint32 {
	return parallel.PackIndices(len(sorted), func(i int) bool {
		return i == 0 || sorted[i].Key != sorted[i-1].Key
	})
}

// nextPow2 returns the smallest power of two >= x (and at least 1).
func nextPow2(x int) int {
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}
