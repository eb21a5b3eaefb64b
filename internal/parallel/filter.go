package parallel

// FilterInto filters src into buf's storage and returns the survivors
// in their original order. buf's contents are overwritten and its
// backing array is grown as needed (only its capacity matters); buf and
// src must not overlap. Callers that filter every round pass the same
// buffer back in and reach a steady state with zero allocations.
func FilterInto[T any](buf, src []T, pred func(T) bool) []T {
	if cap(buf) < len(src) {
		buf = make([]T, 0, len(src))
	}
	return pack(buf, len(src), filterOf[T]{src, pred})
}

// FilterIndex returns the elements of src satisfying pred, which also
// sees the element index, in their original order (the Filter primitive
// of §2). Work O(n), depth O(n/P + P). pred must be pure: it is
// evaluated twice per element (count pass and copy pass), which avoids
// buffering survivors per block.
func FilterIndex[T any](src []T, pred func(i int, v T) bool) []T {
	if len(src) == 0 {
		return nil
	}
	return pack(nil, len(src), filterIndexOf[T]{src, pred})
}

// PackIndices returns, in increasing order, the indices i in [0, n) for
// which pred(i) is true: the "pack" step used after mapping an
// indicator function. The result is written into buf's storage, whose
// contents are overwritten and whose backing array is grown as needed
// (only its capacity matters). A caller that packs over and over passes
// its last result back in, and below the fork cut-off a call then
// allocates nothing, not even a closure. pred must be pure: a forked
// call evaluates it twice per index (count pass and copy pass).
func PackIndices(buf []uint32, n int, pred func(i int) bool) []uint32 {
	return pack(buf, n, indicesOf(pred))
}

// packer is what pack reads: whether candidate i survives, and the
// value a survivor contributes. The three filters above are its
// implementations; as a type parameter rather than a pair of closures,
// it costs a call below the fork cut-off no allocation.
type packer[T any] interface {
	keep(i int) bool
	at(i int) T
}

type filterOf[T any] struct {
	src  []T
	pred func(T) bool
}

func (f filterOf[T]) keep(i int) bool { return f.pred(f.src[i]) }
func (f filterOf[T]) at(i int) T      { return f.src[i] }

type filterIndexOf[T any] struct {
	src  []T
	pred func(int, T) bool
}

func (f filterIndexOf[T]) keep(i int) bool { return f.pred(i, f.src[i]) }
func (f filterIndexOf[T]) at(i int) T      { return f.src[i] }

type indicesOf func(int) bool

func (p indicesOf) keep(i int) bool { return p(i) }
func (p indicesOf) at(i int) uint32 { return uint32(i) }

// pack writes p.at(i) for every i in [0, n) with p.keep(i), in order,
// into buf's storage and returns them. Below the fork cut-off it is one
// loop on the caller (a buffer with no capacity starts at n/4 + 4);
// above it, one pass counts each block's survivors, a scan turns the
// counts into offsets, and a second pass writes each block's survivors
// to its range (buf grows to the exact count if it is short).
func pack[T any, P packer[T]](buf []T, n int, p P) []T {
	if n <= 0 {
		return buf[:0]
	}
	// The sequential path calls keep outside any worker wrapper, so it
	// wraps panics itself to keep the re-raised value uniform (the
	// parallel path inherits containment from For).
	defer rewrapPanic()
	nb, blockSize, _ := blocks(n, DefaultGrain)
	if nb == 1 {
		inlined.Add(1)
		if cap(buf) == 0 {
			buf = make([]T, 0, n/4+4)
		}
		out := buf[:0]
		for i := 0; i < n; i++ {
			if p.keep(i) {
				out = append(out, p.at(i))
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
				if p.keep(i) {
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
		kept := buf[:0]
		if cap(kept) < total {
			kept = make([]T, 0, total)
		}
		kept = kept[:total]
		For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			o := counts[b]
			for i := lo; i < hi; i++ {
				if p.keep(i) {
					kept[o] = p.at(i)
					o++
				}
			}
		})
		out = kept
	})
	return out
}
