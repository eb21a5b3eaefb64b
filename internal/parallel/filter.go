package parallel

// FilterInto filters src into buf's storage and returns the survivors
// in their original order. buf's contents are overwritten and its
// backing array is grown as needed (only its capacity matters); buf and
// src must not overlap. Callers that filter every round pass the same
// buffer back in and reach a steady state with zero allocations.
func FilterInto[T any](buf, src []T, pred func(T) bool) []T {
	n := len(src)
	if n == 0 {
		return buf[:0]
	}
	if cap(buf) < n {
		buf = make([]T, 0, n)
	}
	// The sequential path calls pred outside any worker wrapper, so it
	// wraps panics itself to keep the re-raised value uniform (the
	// parallel path inherits containment from For).
	defer rewrapPanic()
	nb, blockSize, _ := blocks(n, DefaultGrain)
	if nb == 1 {
		inlined.Add(1)
		out := buf[:0]
		for _, v := range src {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out
	}

	// The workers capture the closure-local kept, never the enclosing
	// function's out: a variable assigned after a goroutine-bound closure
	// captures it would move to the heap, one allocation per call.
	var out []T
	WithScratch(nb, func(counts []int) {
		For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			c := 0
			for i := lo; i < hi; i++ {
				if pred(src[i]) {
					c++
				}
			}
			counts[b] = c
		})
		total := 0
		for b := 0; b < nb; b++ {
			c := counts[b]
			counts[b] = total
			total += c
		}
		kept := buf[:total]
		For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			o := counts[b]
			for i := lo; i < hi; i++ {
				if pred(src[i]) {
					kept[o] = src[i]
					o++
				}
			}
		})
		out = kept
	})
	return out
}

// FilterIndex returns the elements of src satisfying pred, which also
// sees the element index, in their original order (the Filter primitive
// of §2). Work O(n), depth O(n/P + P). pred must be pure: it is
// evaluated twice per element (count pass and copy pass), which avoids
// buffering survivors per block.
func FilterIndex[T any](src []T, pred func(i int, v T) bool) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	defer rewrapPanic() // sequential path calls pred unwrapped
	nb, blockSize, _ := blocks(n, DefaultGrain)
	if nb == 1 {
		inlined.Add(1)
		out := make([]T, 0, n/4+4)
		for i, v := range src {
			if pred(i, v) {
				out = append(out, v)
			}
		}
		return out
	}

	var out []T
	WithScratch(nb, func(counts []int) {
		// Pass 1: count survivors per block.
		For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			c := 0
			for i := lo; i < hi; i++ {
				if pred(i, src[i]) {
					c++
				}
			}
			counts[b] = c
		})

		total := 0
		for b := 0; b < nb; b++ {
			c := counts[b]
			counts[b] = total
			total += c
		}
		kept := make([]T, total)

		// Pass 2: each block copies its survivors to its reserved range.
		For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			o := counts[b]
			for i := lo; i < hi; i++ {
				if pred(i, src[i]) {
					kept[o] = src[i]
					o++
				}
			}
		})
		out = kept
	})
	return out
}

// PackIndices returns, in increasing order, the indices i in [0, n) for
// which pred(i) is true. It is the "pack" step used after mapping an
// indicator function.
func PackIndices(n int, pred func(i int) bool) []uint32 {
	var out []uint32
	WithScratch(n, func(idx []uint32) {
		For(n, DefaultGrain, func(i int) { idx[i] = uint32(i) })
		out = FilterIndex(idx, func(i int, _ uint32) bool { return pred(i) })
	})
	return out
}
