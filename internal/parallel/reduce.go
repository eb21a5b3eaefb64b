package parallel

// Number is the constraint satisfied by the numeric types the sequence
// primitives operate on. (Float types are deliberately excluded from Scan
// because parallel reassociation changes float results; none of the
// algorithms in this repository scan floats.)
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// Reduce combines f(i) for i in [0, n) with the associative operator op,
// starting from the identity element id. Work O(n), depth O(log n) in the
// abstract model; here each block reduces sequentially and the (few) block
// results are combined sequentially.
func Reduce[T any](n, grain int, id T, f func(i int) T, op func(a, b T) T) T {
	if n <= 0 {
		return id
	}
	defer rewrapPanic() // sequential path calls f/op unwrapped
	nb, blockSize, _ := blocks(n, grain)
	if nb == 1 {
		inlined.Add(1)
		acc := id
		for i := 0; i < n; i++ {
			acc = op(acc, f(i))
		}
		return acc
	}
	result := id
	WithScratch(nb, func(partial []T) {
		For(nb, 1, func(b int) {
			lo, hi := b*blockSize, min((b+1)*blockSize, n)
			acc := id
			for i := lo; i < hi; i++ {
				acc = op(acc, f(i))
			}
			partial[b] = acc
		})
		for _, v := range partial {
			result = op(result, v)
		}
	})
	return result
}

// Sum returns the sum of f(i) for i in [0, n).
func Sum[T Number](n, grain int, f func(i int) T) T {
	return Reduce(n, grain, T(0), f, func(a, b T) T { return a + b })
}

// SumSlice returns the sum of the elements of s.
func SumSlice[T Number](s []T) T {
	return Sum(len(s), 0, func(i int) T { return s[i] })
}

// Count returns the number of i in [0, n) for which pred(i) is true.
func Count(n, grain int, pred func(i int) bool) int {
	return Sum(n, grain, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// Max returns the maximum of f(i) over [0, n); n must be positive.
func Max[T Number](n, grain int, f func(i int) T) T {
	if n <= 0 {
		panic("parallel: Max over empty range")
	}
	return Reduce(n, grain, f(0), f, func(a, b T) T {
		if a > b {
			return a
		}
		return b
	})
}
