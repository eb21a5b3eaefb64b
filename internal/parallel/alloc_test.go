package parallel

import (
	"runtime"
	"testing"
	"time"
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

// TestInlineRegionsZeroAlloc pins the sequential paths of the adapters:
// a region that runs inline on its caller allocates nothing, whichever
// adapter it came through, a filter into a kept buffer included. (Sum and friends allocate the one generic
// operator closure they hand to Reduce, forked or not.)
func TestInlineRegionsZeroAlloc(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	old := SetProcs(1)
	defer SetProcs(old)
	src := make([]uint32, 1<<13)
	body := func(i int) { src[i]++ }
	worker := func(_, lo, hi int) { src[lo]++ }
	odd := func(i int) bool { return src[i]%2 == 1 }
	kept := PackIndices(nil, len(src), odd)
	seen := FilterInto(nil, src, func(v uint32) bool { return v > 0 })
	if avg := testing.AllocsPerRun(50, func() {
		For(len(src), 64, body)
		Workers(len(src), WorkersFor(int64(len(src))), worker)
		kept = PackIndices(kept, len(src), odd)
		seen = FilterInto(seen, src, func(v uint32) bool { return v > 0 })
	}); avg != 0 {
		t.Fatalf("inline regions allocate %v allocs/op, want 0", avg)
	}
}

// TestForkedRegionAllocs pins the fork path: the job is pooled and the
// caller parks on a channel the job owns, so a forked region allocates
// its block-adapter closure and nothing else (the goroutine-per-block
// fork it replaced allocated a closure per block plus the join state).
// AllocsPerRun pins GOMAXPROCS to 1, where nothing forks, so this one
// counts mallocs itself.
func TestForkedRegionAllocs(t *testing.T) {
	skipIfAllocsUnmeasurable(t)
	old := SetProcs(2)
	defer SetProcs(old)
	src := make([]uint32, 1<<13)
	body := func(i int) { src[i]++ }
	region := func() { For(len(src), 64, body) }
	region() // start the helper, fill the job pool
	const runs = 200
	before := ForkStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		region()
	}
	runtime.ReadMemStats(&m1)
	if d := ForkStats().Sub(before); d.Forked != runs {
		t.Fatalf("%d of %d regions forked", d.Forked, runs)
	}
	if avg := float64(m1.Mallocs-m0.Mallocs) / runs; avg > 2 {
		t.Fatalf("a forked For allocates %.2f objects/op, want at most 2", avg)
	}
}

// TestHelpersParkAtProcs1: at GOMAXPROCS=1 no region is published, so
// every helper a wider phase left behind ends up parked and stays
// parked — none is woken, none spins, none is started.
func TestHelpersParkAtProcs1(t *testing.T) {
	withProcs(t, 4, func() { For(1<<14, 64, func(int) {}) }) // make sure helpers exist
	old := SetProcs(1)
	defer SetProcs(old)
	allParked := func() bool { return pool.parked.Load() == pool.started.Load() }
	for deadline := time.Now().Add(5 * time.Second); !allParked(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked at P=1", pool.parked.Load(), pool.started.Load())
		}
	}
	started, before := pool.started.Load(), ForkStats()
	src := make([]uint32, 1<<14)
	for i := 0; i < 100; i++ {
		For(len(src), 64, func(i int) { src[i]++ })
		Scan(src, src)
	}
	if d := ForkStats().Sub(before); d.Forked != 0 || d.Wakes != 0 || pool.started.Load() != started || !allParked() {
		t.Fatalf("at P=1: %+v, helpers %d→%d, %d parked", d, started, pool.started.Load(), pool.parked.Load())
	}
}
