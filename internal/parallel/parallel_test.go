package parallel

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"julienne/internal/rng"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023, 1024, 1025, 100000} {
		hits := make([]int32, n)
		For(n, 64, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// The blocked decomposition: the blocks Workers hands out are
// non-empty, inside [0, n), and cover every index once.
func TestBlockedCoversDisjointRanges(t *testing.T) {
	for _, n := range []int{1, 5, 1000, 4096, 12345} {
		hits := make([]int32, n)
		Workers(n, Procs(), func(_, lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestBlockedEmptyAndNegative(t *testing.T) {
	called := false
	For(0, 10, func(int) { called = true })
	For(-5, 10, func(int) { called = true })
	Workers(0, 2, func(_, _, _ int) { called = true })
	Workers(-5, 2, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("a blocked loop called its body for an empty range")
	}
}

func TestWorkersDisjointStableIndices(t *testing.T) {
	n := 10000
	hits := make([]int32, n)
	seen := make(map[int]bool)
	var mu atomic.Int32
	Workers(n, Procs(), func(w, lo, hi int) {
		mu.Add(1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
		_ = seen
		if w < 0 || w >= Procs() {
			t.Errorf("worker index %d out of range", w)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestSumMatchesSequential(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		n := r.IntN(5000)
		xs := make([]int64, n)
		var want int64
		for i := range xs {
			xs[i] = int64(r.IntN(1000)) - 500
			want += xs[i]
		}
		if got := Sum(len(xs), 0, func(i int) int64 { return xs[i] }); got != want {
			t.Fatalf("n=%d: Sum=%d want %d", n, got, want)
		}
	}
}

func TestReduceMaxMin(t *testing.T) {
	xs := []int{5, 3, 9, -2, 7, 9, 0}
	if got := Max(len(xs), 2, func(i int) int { return xs[i] }); got != 9 {
		t.Fatalf("Max=%d want 9", got)
	}
	if got := Reduce(len(xs), 2, xs[0], func(i int) int { return xs[i] },
		func(a, b int) int { return min(a, b) }); got != -2 {
		t.Fatalf("min reduction=%d want -2", got)
	}
}

func TestCountAndAny(t *testing.T) {
	n := 10000
	even := func(i int) bool { return i%2 == 0 }
	if got := Count(n, 0, even); got != n/2 {
		t.Fatalf("Count=%d want %d", got, n/2)
	}
	anyOf := func(pred func(i int) bool) bool {
		return Reduce(n, 0, false, pred, func(a, b bool) bool { return a || b })
	}
	if !anyOf(func(i int) bool { return i == n-1 }) {
		t.Fatal("or-reduction missed the last index")
	}
	if anyOf(func(i int) bool { return false }) {
		t.Fatal("or-reduction reported a hit on a false predicate")
	}
}

// scanSeq is the obvious sequential exclusive scan used as the oracle.
func scanSeq(src []uint64) ([]uint64, uint64) {
	out := make([]uint64, len(src))
	var acc uint64
	for i, v := range src {
		out[i] = acc
		acc += v
	}
	return out, acc
}

func TestScanMatchesSequential(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 30; trial++ {
		n := r.IntN(20000)
		src := make([]uint64, n)
		for i := range src {
			src[i] = r.Uint64() % 100
		}
		want, wantTotal := scanSeq(src)
		dst := make([]uint64, n)
		gotTotal := Scan(dst, src)
		if gotTotal != wantTotal {
			t.Fatalf("n=%d: total=%d want %d", n, gotTotal, wantTotal)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: dst[%d]=%d want %d", n, i, dst[i], want[i])
			}
		}
	}
}

func TestScanInPlace(t *testing.T) {
	src := []uint32{3, 1, 4, 1, 5, 9, 2, 6}
	want := []uint32{0, 3, 4, 8, 9, 14, 23, 25}
	total := Scan(src, src)
	if total != 31 {
		t.Fatalf("total=%d want 31", total)
	}
	for i := range src {
		if src[i] != want[i] {
			t.Fatalf("src[%d]=%d want %d", i, src[i], want[i])
		}
	}
}

// Property: Scan is the left inverse of adjacent differences.
func TestScanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		src := make([]uint64, len(raw))
		for i, v := range raw {
			src[i] = uint64(v)
		}
		dst := make([]uint64, len(src))
		total := Scan(dst, src)
		want, wantTotal := scanSeq(src)
		if total != wantTotal {
			return false
		}
		for i := range dst {
			if dst[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterPreservesOrder(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := r.IntN(30000)
		src := make([]int, n)
		for i := range src {
			src[i] = r.IntN(100)
		}
		pred := func(v int) bool { return v%3 == 0 }
		got := FilterIndex(src, func(_ int, v int) bool { return pred(v) })
		var want []int
		for _, v := range src {
			if pred(v) {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: len=%d want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got[%d]=%d want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestFilterProperty(t *testing.T) {
	f := func(src []int8) bool {
		got := FilterIndex(src, func(_ int, v int8) bool { return v > 0 })
		var want []int8
		for _, v := range src {
			if v > 0 {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPackIndices(t *testing.T) {
	got := PackIndices(10, func(i int) bool { return i%4 == 0 })
	want := []uint32{0, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("len=%d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got[%d]=%d want %d", i, got[i], want[i])
		}
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Fatal("PackIndices output not sorted")
	}
}

func TestWriteMinUint32(t *testing.T) {
	var x uint32 = 100
	if !WriteMinUint32(&x, 50) || x != 50 {
		t.Fatalf("WriteMin failed: x=%d", x)
	}
	if WriteMinUint32(&x, 50) {
		t.Fatal("WriteMin reported success on equal value")
	}
	if WriteMinUint32(&x, 60) || x != 50 {
		t.Fatalf("WriteMin increased value: x=%d", x)
	}
}

func TestWriteMinConcurrent(t *testing.T) {
	var x uint32 = 1 << 31
	n := 100000
	var successes int64
	For(n, 100, func(i int) {
		if WriteMinUint32(&x, uint32(rng.At(3, uint64(i))%1000000)) {
			atomic.AddInt64(&successes, 1)
		}
	})
	// The final value must be the global minimum of all attempted values.
	var want uint32 = 1 << 31
	for i := 0; i < n; i++ {
		v := uint32(rng.At(3, uint64(i)) % 1000000)
		if v < want {
			want = v
		}
	}
	if x != want {
		t.Fatalf("final=%d want %d", x, want)
	}
	if successes < 1 {
		t.Fatal("no successful writeMin")
	}
}

func TestWriteMinInt64(t *testing.T) {
	var x int64 = 1 << 40
	if !WriteMinInt64(&x, 7) || x != 7 {
		t.Fatalf("WriteMinInt64 failed: x=%d", x)
	}
	if WriteMinInt64(&x, 8) {
		t.Fatal("WriteMinInt64 wrongly succeeded")
	}
}
