package parallel

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
