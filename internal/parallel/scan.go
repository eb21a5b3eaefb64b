package parallel

import "unsafe"

// Scan computes the exclusive prefix sum of src into dst and returns the
// total: dst[i] = src[0] + ... + src[i-1], dst[0] = 0. dst and src may be
// the same slice (the common in-place use). This is the Scan primitive of
// §2 specialized to +, which is the only operator the framework needs.
//
// The implementation is the standard two-pass blocked scan: a parallel
// pass computes per-block sums, a short sequential scan combines them into
// block offsets, and a second parallel pass writes the prefix sums. Work
// O(n), depth O(n/P + P). Both passes are For regions over the blocks and
// the per-block sums live in a pooled scratch buffer, so steady-state
// calls allocate nothing beyond the two regions' closures.
func Scan[T Number](dst, src []T) T {
	n := len(src)
	if len(dst) != n {
		panic("parallel: Scan length mismatch")
	}
	if n == 0 {
		return 0
	}
	nb, blockSize, _ := blocks(n, DefaultGrain)
	if nb == 1 {
		inlined.Add(1)
		var acc T
		for i := 0; i < n; i++ {
			v := src[i]
			dst[i] = acc
			acc += v
		}
		return acc
	}

	var total T
	WithScratch(nb, func(sums []T) {
		total = blockOffsets(sums, blockSize, src)
		For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			acc := sums[b]
			for i := lo; i < hi; i++ {
				v := src[i]
				dst[i] = acc
				acc += v
			}
		})
	})
	return total
}

// blockOffsets is the first half of the two-pass blocked scans: it sums
// each block of src in parallel, turns the per-block sums into exclusive
// block offsets in place, and returns the grand total.
func blockOffsets[T Number](sums []T, blockSize int, src []T) T {
	n := len(src)
	For(len(sums), 1, func(b int) {
		lo, hi := b*blockSize, min((b+1)*blockSize, n)
		var acc T
		for i := lo; i < hi; i++ {
			acc += src[i]
		}
		sums[b] = acc
	})
	var total T
	for b := range sums {
		s := sums[b]
		sums[b] = total
		total += s
	}
	return total
}

// ScanInclusive computes the inclusive prefix sum of src into dst and
// returns the total: dst[i] = src[0] + ... + src[i].
//
// When dst and src are the same slice, or do not overlap at all, the
// scan runs directly into dst with no O(n) scratch: each block reads
// only its own range of src and writes only the same index range of
// dst, so in-place operation is race-free. Only a partial overlap
// (dst and src sharing memory at shifted offsets) falls back to a
// pooled scratch copy.
func ScanInclusive[T Number](dst, src []T) T {
	n := len(src)
	if len(dst) != n {
		panic("parallel: ScanInclusive length mismatch")
	}
	if n == 0 {
		return 0
	}
	if &dst[0] == &src[0] || !slicesOverlap(dst, src) {
		return scanInclusiveInto(dst, src)
	}
	// Partial overlap: writing dst[i] could clobber an src[j] (j != i)
	// another block has yet to read. Copy src out of harm's way first.
	var total T
	WithScratch(n, func(tmp []T) {
		Blocked(n, DefaultGrain, func(lo, hi int) {
			copy(tmp[lo:hi], src[lo:hi])
		})
		total = scanInclusiveInto(dst, tmp)
	})
	return total
}

// scanInclusiveInto is the inclusive two-pass blocked scan. It requires
// that dst and src are either identical or fully disjoint: block b reads
// src[lo:hi] and writes dst[lo:hi] only.
func scanInclusiveInto[T Number](dst, src []T) T {
	n := len(src)
	nb, blockSize, _ := blocks(n, DefaultGrain)
	if nb == 1 {
		inlined.Add(1)
		var acc T
		for i := 0; i < n; i++ {
			acc += src[i]
			dst[i] = acc
		}
		return acc
	}

	var total T
	WithScratch(nb, func(sums []T) {
		total = blockOffsets(sums, blockSize, src)
		For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			acc := sums[b]
			for i := lo; i < hi; i++ {
				acc += src[i]
				dst[i] = acc
			}
		})
	})
	return total
}

// slicesOverlap reports whether a and b share any backing memory.
func slicesOverlap[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sz := unsafe.Sizeof(a[0])
	a0 := uintptr(unsafe.Pointer(&a[0]))
	b0 := uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*sz && b0 < a0+uintptr(len(a))*sz
}
