package parallel_test

// Tests for the one scheduling core (run.go) through every entry point
// that reaches it. The contract under test is DESIGN.md §9's: whichever
// participant a callback panics on — the caller or a pool helper — one
// *parallel.PanicError re-raises on the caller after every chunk has
// finished, the scratch pool is balanced, and no goroutine is left
// inside a job.

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"julienne/internal/harness"
	"julienne/internal/parallel"
)

// goid returns the current goroutine's id.
func goid() uint64 {
	var buf [64]byte
	return stackGoid(buf[:runtime.Stack(buf[:], false)])
}

// stackGoid parses the "goroutine N [" header of a stack dump.
func stackGoid(stack []byte) uint64 {
	stack = bytes.TrimPrefix(stack, []byte("goroutine "))
	if i := bytes.IndexByte(stack, ' '); i > 0 {
		id, _ := strconv.ParseUint(string(stack[:i]), 10, 64)
		return id
	}
	return 0
}

// entryPoint is one primitive built on the core. run executes it on an
// input large enough to fork at P=4 into more chunks than there are
// helpers, calling hook from inside every callback invocation
// (primitives without a callback never call it).
type entryPoint struct {
	name     string
	callback bool
	run      func(hook func())
}

const tableN = 1 << 14

func entryPoints() []entryPoint {
	in := make([]uint32, tableN)
	for i := range in {
		in[i] = uint32(i)
	}
	buf := make([]uint32, 0, tableN)
	dst := make([]uint32, tableN)
	even := func(hook func()) func(uint32) bool {
		return func(v uint32) bool { hook(); return v%2 == 0 }
	}
	return []entryPoint{
		{"For", true, func(hook func()) {
			parallel.For(tableN, 64, func(int) { hook() })
		}},
		{"Workers", true, func(hook func()) {
			parallel.Workers(tableN, 4, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					hook()
				}
			})
		}},
		{"Reduce", true, func(hook func()) {
			parallel.Sum(tableN, 64, func(i int) int64 { hook(); return int64(i) })
		}},
		{"Scan", false, func(func()) { parallel.Scan(dst, in) }},
		{"Filter", true, func(hook func()) { parallel.Filter(in, even(hook)) }},
		{"FilterInto", true, func(hook func()) { parallel.FilterInto(buf, in, even(hook)) }},
		{"FilterAppend", true, func(hook func()) { parallel.FilterAppend(buf[:0], in, even(hook)) }},
		{"FilterIndex", true, func(hook func()) {
			parallel.FilterIndex(in, func(i int, _ uint32) bool { hook(); return i%2 == 0 })
		}},
		{"PackIndices", true, func(hook func()) {
			parallel.PackIndices(tableN, func(i int) bool { hook(); return i%2 == 0 })
		}},
	}
}

// atProcs runs f at GOMAXPROCS p.
func atProcs(p int, f func()) {
	defer parallel.SetProcs(parallel.SetProcs(p))
	f()
}

// awaitBriefly yields until the flag is set or a few ms have passed:
// long enough for a summoned helper to wake and claim a chunk.
func awaitBriefly(flag *atomic.Bool) {
	for deadline := time.Now().Add(5 * time.Millisecond); !flag.Load() && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// TestPanicOnCallerAndOnHelper: for every entry point with a callback,
// a panic raised on the caller's goroutine and one raised on a pool
// helper both surface as a single *PanicError naming the panicking
// goroutine, after every started callback has returned.
func TestPanicOnCallerAndOnHelper(t *testing.T) {
	defer harness.LeakCheck(t)()
	for _, ep := range entryPoints() {
		if !ep.callback {
			continue
		}
		for _, onHelper := range []bool{false, true} {
			name := ep.name + "/caller"
			if onHelper {
				name = ep.name + "/helper"
			}
			t.Run(name, func(t *testing.T) {
				atProcs(4, func() { panicOn(t, ep, onHelper) })
			})
		}
	}
}

func panicOn(t *testing.T, ep entryPoint, onHelper bool) {
	caller := goid()
	var fired atomic.Bool
	var active, held atomic.Int64
	var victim atomic.Uint64
	hook := func() {
		active.Add(1)
		defer active.Add(-1)
		if (goid() != caller) != onHelper {
			// The other side: hold its first callbacks back so the
			// victim is sure to get a turn before the chunks run out.
			if held.Add(1) <= 100 {
				awaitBriefly(&fired)
			}
			return
		}
		if fired.CompareAndSwap(false, true) {
			victim.Store(goid())
			panic("boom in " + ep.name)
		}
	}
	pe := recoverPanicError(t, func() { ep.run(hook) })
	if pe == nil {
		return
	}
	if pe.Value != "boom in "+ep.name {
		t.Errorf("PanicError.Value = %v, want the callback's panic", pe.Value)
	}
	if got := stackGoid(pe.Stack); got != victim.Load() {
		t.Errorf("PanicError.Stack is of goroutine %d, the panic was on %d", got, victim.Load())
	}
	if (victim.Load() != caller) != onHelper {
		t.Errorf("panic raised on goroutine %d; caller is %d, wanted onHelper=%v", victim.Load(), caller, onHelper)
	}
	if n := active.Load(); n != 0 {
		t.Errorf("%d callbacks still running after the region returned", n)
	}
	checkScratchBalanced(t)
}

// TestNestedRegions: For inside Workers inside For. Every index of every
// inner loop is visited exactly once, whoever ends up running it.
func TestNestedRegions(t *testing.T) {
	defer harness.LeakCheck(t)()
	const outer, n, inner = 4, 64, 512
	atProcs(4, func() {
		hits := make([]int32, outer*n*inner)
		parallel.For(outer, 1, func(d int) {
			parallel.Workers(n, 4, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					base := (d*n + i) * inner
					parallel.For(inner, 32, func(k int) { atomic.AddInt32(&hits[base+k], 1) })
				}
			})
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d visited %d times", i, h)
			}
		}
	})
}

// TestConcurrentCallersShareThePool: 8 goroutines fork regions at once.
// Only one job is published at a time; the others must finish on their
// callers alone, and nobody may run anybody else's index twice.
func TestConcurrentCallersShareThePool(t *testing.T) {
	defer harness.LeakCheck(t)()
	const callers, n, rounds = 8, 1 << 13, 50
	atProcs(4, func() {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hits := make([]int32, n)
				for r := 0; r < rounds; r++ {
					parallel.For(n, 64, func(i int) { atomic.AddInt32(&hits[i], 1) })
					if got := parallel.Sum(n, 64, func(i int) int64 { return int64(hits[i]) }); got != int64(n*(r+1)) {
						t.Errorf("caller %d round %d: %d visits, want %d", c, r, got, n*(r+1))
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	checkScratchBalanced(t)
}

// TestProcsFlippedDuringRegions flips GOMAXPROCS 1↔2↔4 while regions
// are in flight (the benchmark flips it between operations; a served
// process may flip it at any time). Correctness may not depend on it.
func TestProcsFlippedDuringRegions(t *testing.T) {
	defer harness.LeakCheck(t)()
	defer parallel.SetProcs(parallel.SetProcs(2))
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				parallel.SetProcs([]int{1, 2, 4, 2}[i%4])
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	const n = 1 << 14
	src := make([]uint64, n)
	var want uint64
	for i := range src {
		src[i] = uint64(i % 5)
		want += src[i]
	}
	dst := make([]uint64, n)
	for r := 0; r < 300; r++ {
		hits := make([]int32, n)
		parallel.Workers(n, parallel.Procs(), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: index %d visited %d times", r, i, h)
			}
		}
		if total := parallel.Scan(dst, src); total != want {
			t.Fatalf("round %d: Scan total %d, want %d", r, total, want)
		}
	}
	close(stop)
	<-flipped
}

// TestForkBudgetCounters: a forked region counts as forked, a region
// below its grain or at P=1 as inline, and nothing else moves.
func TestForkBudgetCounters(t *testing.T) {
	atProcs(2, func() {
		before := parallel.ForkStats()
		parallel.For(1<<14, 64, func(int) {})
		if d := parallel.ForkStats().Sub(before); d.Forked != 1 || d.Inline != 0 {
			t.Errorf("a forked For counted %+v, want exactly one fork", d)
		}
		before = parallel.ForkStats()
		parallel.For(100, 1024, func(int) {})
		parallel.Workers(100, parallel.WorkersFor(100), func(int, int, int) {})
		if d := parallel.ForkStats().Sub(before); d.Forked != 0 || d.Inline != 2 || d.Wakes != 0 {
			t.Errorf("two sub-grain regions counted %+v, want two inline and no fork", d)
		}
	})
	atProcs(1, func() {
		before := parallel.ForkStats()
		parallel.For(1<<14, 64, func(int) {})
		if d := parallel.ForkStats().Sub(before); d.Forked != 0 || d.Inline != 1 || d.Wakes != 0 {
			t.Errorf("a region at P=1 counted %+v, want one inline", d)
		}
	})
}

// TestWorkersForIsKeyedOnWork pins the cut-off's shape: no second
// worker below it, one worker per forkWork above it, never more than P.
func TestWorkersForIsKeyedOnWork(t *testing.T) {
	atProcs(4, func() {
		for _, tc := range []struct {
			work int64
			want int
		}{{0, 1}, {60, 1}, {4095, 1}, {8191, 1}, {8192, 2}, {3 * 4096, 3}, {1 << 30, 4}} {
			if got := parallel.WorkersFor(tc.work); got != tc.want {
				t.Errorf("WorkersFor(%d) = %d at P=4, want %d", tc.work, got, tc.want)
			}
		}
	})
	atProcs(1, func() {
		if got := parallel.WorkersFor(1 << 30); got != 1 {
			t.Errorf("WorkersFor(huge) = %d at P=1, want 1", got)
		}
	})
}
