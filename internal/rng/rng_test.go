package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(12346)
	same := 0
	a = New(12345)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times in 1000 draws", same)
	}
}

func TestUintNInRange(t *testing.T) {
	r := New(9)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := r.UintN(n); v >= n {
				t.Fatalf("UintN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUintNOneIsZero(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if v := r.UintN(1); v != 0 {
			t.Fatalf("UintN(1) = %d, want 0", v)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestRangeBounds(t *testing.T) {
	r := New(4)
	for i := 0; i < 1000; i++ {
		v := r.Range(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Range(10,20) = %d", v)
		}
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := New(77)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

// TestUniformity is a coarse chi-square-style check that UintN(k) hits all
// residues roughly equally. It guards against e.g. only using low bits.
func TestUniformity(t *testing.T) {
	r := New(2024)
	const k, draws = 16, 160000
	var counts [k]int
	for i := 0; i < draws; i++ {
		counts[r.UintN(k)]++
	}
	want := float64(draws) / k
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestAtMatchesIndependence(t *testing.T) {
	// At(seed, i) must be deterministic and differ across i and seeds.
	if At(1, 5) != At(1, 5) {
		t.Fatal("At is not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := At(42, i)
		if seen[v] {
			t.Fatalf("collision at i=%d", i)
		}
		seen[v] = true
	}
}

func TestUintNAtInRange(t *testing.T) {
	f := func(seed, i uint64, nRaw uint16) bool {
		n := uint64(nRaw) + 1
		return UintNAt(seed, i, n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHash64Bijective(t *testing.T) {
	// mix is bijective, so no collisions among distinct small inputs.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 100000; i++ {
		v := Hash64(i)
		if seen[v] {
			t.Fatalf("Hash64 collision at %d", i)
		}
		seen[v] = true
	}
}

func TestPanicBranches(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("UintN(0)", func() { New(1).UintN(0) })
	mustPanic("Range empty", func() { New(1).Range(5, 5) })
	mustPanic("UintNAt(0)", func() { UintNAt(1, 2, 0) })
}

func TestUint64AliasesNext(t *testing.T) {
	a, b := New(5), New(5)
	if a.Uint64() != b.Next() {
		t.Fatal("Uint64 alias differs from Next")
	}
}
