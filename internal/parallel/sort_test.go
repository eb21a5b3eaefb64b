package parallel

import (
	"slices"
	"testing"
	"testing/quick"

	"julienne/internal/rng"
)

func TestSortByKeyBasic(t *testing.T) {
	xs := []uint64{5, 3, 9, 3, 0, 1 << 40, 7}
	SortByKey(xs, func(x uint64) uint64 { return x })
	if !slices.IsSorted(xs) {
		t.Fatalf("not sorted: %v", xs)
	}
	if xs[0] != 0 || xs[6] != 1<<40 {
		t.Fatalf("extremes wrong: %v", xs)
	}
}

func TestSortByKeyEmptyAndSingle(t *testing.T) {
	SortByKey([]int{}, func(int) uint64 { return 0 })
	one := []int{42}
	SortByKey(one, func(x int) uint64 { return uint64(x) })
	if one[0] != 42 {
		t.Fatal("single element disturbed")
	}
}

func TestSortByKeyAllEqual(t *testing.T) {
	xs := []int{7, 7, 7, 7}
	SortByKey(xs, func(int) uint64 { return 3 })
	for _, x := range xs {
		if x != 7 {
			t.Fatal("equal-key fast path corrupted data")
		}
	}
}

func TestSortByKeyStable(t *testing.T) {
	// Items with equal keys must keep input order.
	type rec struct {
		k uint64
		i int
	}
	n := 50000
	r := rng.New(4)
	xs := make([]rec, n)
	for i := range xs {
		xs[i] = rec{k: uint64(r.IntN(50)), i: i}
	}
	SortByKey(xs, func(x rec) uint64 { return x.k })
	for i := 1; i < n; i++ {
		if xs[i-1].k == xs[i].k && xs[i-1].i > xs[i].i {
			t.Fatalf("instability at %d", i)
		}
		if xs[i-1].k > xs[i].k {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestSortByKeyRandomSizes(t *testing.T) {
	r := rng.New(8)
	for _, n := range []int{2, 3, 100, 1023, 1024, 1025, 60000} {
		xs := make([]uint64, n)
		var sum uint64
		for i := range xs {
			xs[i] = r.Uint64()
			sum += xs[i]
		}
		SortByKey(xs, func(x uint64) uint64 { return x })
		if !slices.IsSorted(xs) {
			t.Fatalf("n=%d not sorted", n)
		}
		var sum2 uint64
		for _, x := range xs {
			sum2 += x
		}
		if sum != sum2 {
			t.Fatalf("n=%d elements lost", n)
		}
	}
}

func TestSortByKeyProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		xs := append([]uint32(nil), raw...)
		SortByKey(xs, func(x uint32) uint64 { return uint64(x) })
		if !slices.IsSorted(xs) {
			return false
		}
		// Multiset preserved.
		counts := map[uint32]int{}
		for _, x := range raw {
			counts[x]++
		}
		for _, x := range xs {
			counts[x]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSortByKeyParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		r := rng.New(12)
		n := 300000
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = r.Uint64()
		}
		SortByKey(xs, func(x uint64) uint64 { return x })
		if !slices.IsSorted(xs) {
			t.Fatal("parallel sort failed")
		}
	})
}
