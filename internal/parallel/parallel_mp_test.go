package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"julienne/internal/rng"
)

// withProcs runs f with GOMAXPROCS temporarily raised so the
// goroutine-spawning branches of every kernel execute even on
// single-CPU machines (goroutines still interleave on one core).
func withProcs(t *testing.T, p int, f func()) {
	t.Helper()
	old := SetProcs(p)
	defer SetProcs(old)
	f()
}

// TestBlockedParallelPath: at P=4 the blocks Workers hands out cover
// every index once.
func TestBlockedParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		for _, n := range []int{1, 7, 4096, 100001} {
			hits := make([]int32, n)
			Workers(n, 4, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d index %d hit %d times", n, i, h)
				}
			}
		}
	})
}

func TestForOneItemPerBlock(t *testing.T) {
	withProcs(t, 4, func() {
		var count int32
		For(3, 1, func(i int) { atomic.AddInt32(&count, 1<<i) })
		if count != 7 {
			t.Fatalf("count=%d", count)
		}
	})
}

func TestWorkersParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		n := 10000
		hits := make([]int32, n)
		workers := map[int]bool{}
		var mu int32
		var joined atomic.Bool
		Workers(n, 4, func(w, lo, hi int) {
			// The caller could finish all of this before a parked helper
			// wakes; hold its blocks until one has, to see the index.
			if w != 0 {
				joined.Store(true)
			}
			for deadline := time.Now().Add(5 * time.Second); !joined.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			for atomic.CompareAndSwapInt32(&mu, 0, 1) == false {
			}
			workers[w] = true
			atomic.StoreInt32(&mu, 0)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d hit %d times", i, h)
			}
		}
		if len(workers) < 2 {
			t.Fatalf("expected multiple workers, got %v", workers)
		}
	})
}

func TestReduceParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		n := 100000
		want := int64(n) * int64(n-1) / 2
		got := Sum(n, 100, func(i int) int64 { return int64(i) })
		if got != want {
			t.Fatalf("Sum=%d want %d", got, want)
		}
		if Max(n, 100, func(i int) int { return i }) != n-1 {
			t.Fatal("Max wrong")
		}
	})
}

func TestScanParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		r := rng.New(3)
		for trial := 0; trial < 10; trial++ {
			n := 10000 + r.IntN(50000)
			src := make([]uint64, n)
			for i := range src {
				src[i] = r.Uint64() % 50
			}
			want, wantTotal := scanSeq(src)
			dst := make([]uint64, n)
			total := Scan(dst, src)
			if total != wantTotal {
				t.Fatalf("total %d want %d", total, wantTotal)
			}
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("dst[%d]", i)
				}
			}
		}
	})
}

func TestFilterParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		n := 200000
		src := make([]int, n)
		for i := range src {
			src[i] = i
		}
		got := FilterIndex(src, func(_ int, v int) bool { return v%5 == 0 })
		if len(got) != (n+4)/5 {
			t.Fatalf("len=%d", len(got))
		}
		for i, v := range got {
			if v != i*5 {
				t.Fatalf("got[%d]=%d (order broken)", i, v)
			}
		}
	})
}
