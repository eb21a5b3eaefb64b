package parallel

import (
	"testing"

	"julienne/internal/rng"
)

// skipIfAllocsUnmeasurable skips tests that assert exact allocation
// counts in configurations where the runtime inflates them.
func skipIfAllocsUnmeasurable(t *testing.T) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

func TestScanZeroAllocSteadyState(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	old := SetProcs(1)
	defer SetProcs(old)
	src := make([]uint32, 1<<13)
	for i := range src {
		src[i] = uint32(i % 7)
	}
	dst := make([]uint32, len(src))
	if avg := testing.AllocsPerRun(50, func() { Scan(dst, src) }); avg != 0 {
		t.Fatalf("Scan allocates %v allocs/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { ScanInclusive(dst, src) }); avg != 0 {
		t.Fatalf("ScanInclusive allocates %v allocs/op in steady state, want 0", avg)
	}
}

func TestScratchPoolZeroAlloc(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	old := SetProcs(1)
	defer SetProcs(old)
	touch := func(s []uint32) { s[0] = 1 }
	WithScratch(4096, touch) // warm the pool past the high-water mark
	if avg := testing.AllocsPerRun(100, func() {
		WithScratch(4096, touch)
	}); avg != 0 {
		t.Fatalf("WithScratch round-trip allocates %v allocs/op, want 0", avg)
	}
}

// scanInclusiveSeq is the sequential oracle for the aliasing tests.
func scanInclusiveSeq(src []uint64) ([]uint64, uint64) {
	out := make([]uint64, len(src))
	var acc uint64
	for i, v := range src {
		acc += v
		out[i] = acc
	}
	return out, acc
}

func TestScanInclusiveAliasing(t *testing.T) {
	withProcs(t, 4, func() {
		r := rng.New(11)
		n := 40000
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = r.Uint64() % 100
		}
		want, wantTotal := scanInclusiveSeq(vals)

		check := func(name string, dst, got []uint64, total uint64) {
			t.Helper()
			if total != wantTotal {
				t.Fatalf("%s: total=%d want %d", name, total, wantTotal)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: dst[%d]=%d want %d", name, i, got[i], want[i])
				}
			}
			_ = dst
		}

		// Identical: dst and src are the same slice (in-place).
		buf := make([]uint64, n)
		copy(buf, vals)
		total := ScanInclusive(buf, buf)
		check("identical", buf, buf, total)

		// Disjoint: separate backing arrays.
		src := make([]uint64, n)
		copy(src, vals)
		dst := make([]uint64, n)
		total = ScanInclusive(dst, src)
		check("disjoint", dst, dst, total)
		for i := range src {
			if src[i] != vals[i] {
				t.Fatalf("disjoint: src[%d] clobbered", i)
			}
		}

		// Partial overlap: dst shifted one element into src's backing
		// array. The kernel must copy src aside before writing.
		backing := make([]uint64, n+1)
		copy(backing, vals)
		total = ScanInclusive(backing[1:], backing[:n])
		check("partial-overlap", backing[1:], backing[1:], total)
	})
}

func TestFilterInto(t *testing.T) {
	withProcs(t, 4, func() {
		n := 120000
		src := make([]int, n)
		for i := range src {
			src[i] = i
		}
		pred := func(v int) bool { return v%7 == 0 }
		var buf []int
		// Two rounds through the same buffer: the second must reuse the
		// storage grown by the first.
		for round := 0; round < 2; round++ {
			buf = FilterInto(buf, src, pred)
			if len(buf) != (n+6)/7 {
				t.Fatalf("round %d: len=%d", round, len(buf))
			}
			for i, v := range buf {
				if v != i*7 {
					t.Fatalf("round %d: buf[%d]=%d (order broken)", round, i, v)
				}
			}
		}
		first := &buf[0]
		buf = FilterInto(buf, src[:70], pred)
		if len(buf) != 10 || &buf[0] != first {
			t.Fatalf("shrinking filter reallocated (len=%d)", len(buf))
		}
		if got := FilterInto(buf, nil, pred); len(got) != 0 {
			t.Fatalf("empty src: len=%d", len(got))
		}
	})
}
