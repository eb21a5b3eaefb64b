package parallel_test

// Tests for the panic-containment half of the failure semantics
// (DESIGN.md §9): a panic in a caller-supplied callback running on any
// worker goroutine must re-raise as a single *parallel.PanicError on
// the calling goroutine — never crash the process from a worker, never
// deadlock the join, never leak a goroutine, and never strand a pooled
// scratch buffer.
//
// These tests live in package parallel_test (not parallel) so they can
// use the harness leak checker: harness imports parallel, so the
// internal test package would create an import cycle.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"julienne/internal/harness"
	"julienne/internal/parallel"
)

// recoverPanicError runs f, expecting it to panic, and returns the
// recovered *parallel.PanicError (failing the test for a clean return
// or a non-PanicError value).
func recoverPanicError(t *testing.T, f func()) *parallel.PanicError {
	t.Helper()
	var pe *parallel.PanicError
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatalf("expected a panic, got none")
			}
			var ok bool
			pe, ok = v.(*parallel.PanicError)
			if !ok {
				t.Fatalf("panic value is %T (%v), want *parallel.PanicError", v, v)
			}
		}()
		f()
	}()
	return pe
}

// checkScratchBalanced asserts the pool's get/put counters agree. All
// tests here are quiescent (no primitive mid-flight) when they call it.
func checkScratchBalanced(t *testing.T) {
	t.Helper()
	if b := parallel.ScratchStats(); !b.Balanced() {
		t.Errorf("scratch pool imbalance: %d gets, %d puts", b.Gets, b.Puts)
	}
}

// TestPanicContainmentAcceptance is the issue's acceptance scenario: a
// callback panic on a worker goroutine is re-raised exactly once on the
// caller, the process does not crash, all workers join (no goroutine
// leak), and the scratch pool is balanced afterwards.
func TestPanicContainmentAcceptance(t *testing.T) {
	defer harness.LeakCheck(t)()
	const n = 10_000
	sentinel := errors.New("boom at 4242")
	pe := recoverPanicError(t, func() {
		parallel.For(n, 1, func(i int) {
			if i == 4242 {
				panic(sentinel)
			}
		})
	})
	if pe.Value != sentinel {
		t.Errorf("PanicError.Value = %v, want the sentinel error", pe.Value)
	}
	if !errors.Is(pe, sentinel) {
		t.Errorf("errors.Is(pe, sentinel) = false, want true (Unwrap)")
	}
	if len(pe.Stack) == 0 {
		t.Errorf("PanicError.Stack is empty, want the panicking goroutine's stack")
	}
	checkScratchBalanced(t)
}

func TestPanicErrorUnwrapNonError(t *testing.T) {
	pe := recoverPanicError(t, func() {
		parallel.For(100, 1, func(i int) { panic("plain string") })
	})
	if pe.Unwrap() != nil {
		t.Errorf("Unwrap of a non-error panic value = %v, want nil", pe.Unwrap())
	}
	if pe.Value != "plain string" {
		t.Errorf("Value = %v, want the original string", pe.Value)
	}
}

// TestPanicNotDoubleWrapped pins that a panic crossing two nested
// parallel regions surfaces as one *PanicError wrapping the original
// value, not a PanicError of a PanicError.
func TestPanicNotDoubleWrapped(t *testing.T) {
	defer harness.LeakCheck(t)()
	pe := recoverPanicError(t, func() {
		parallel.For(2, 1, func(outer int) {
			if outer == 0 {
				parallel.For(1000, 1, func(i int) {
					if i == 500 {
						panic("inner")
					}
				})
			}
		})
	})
	if pe.Value != "inner" {
		t.Errorf("Value = %v (%T), want the innermost panic value", pe.Value, pe.Value)
	}
}

// TestMultiplePanicsSingleRethrow: when several workers panic in the
// same region, exactly one PanicError surfaces.
func TestMultiplePanicsSingleRethrow(t *testing.T) {
	defer harness.LeakCheck(t)()
	pe := recoverPanicError(t, func() {
		parallel.For(10_000, 1, func(i int) { panic(i) })
	})
	if _, ok := pe.Value.(int); !ok {
		t.Errorf("Value = %v (%T), want one of the int panic values", pe.Value, pe.Value)
	}
}

// TestPanicJoinsOtherChunks: a forked region whose first chunk panics
// still waits for its other chunk before re-raising, so that chunk's
// effects are visible afterwards.
func TestPanicJoinsOtherChunks(t *testing.T) {
	defer harness.LeakCheck(t)()
	defer parallel.SetProcs(parallel.SetProcs(2))
	var other atomic.Bool
	pe := recoverPanicError(t, func() {
		parallel.Workers(2, 2, func(_, lo, _ int) {
			if lo == 0 {
				panic("first")
			}
			other.Store(true)
		})
	})
	if pe.Value != "first" {
		t.Errorf("Value = %v, want the first chunk's panic", pe.Value)
	}
	if !other.Load() {
		t.Errorf("the other chunk did not complete before the re-raise")
	}
}

// panicAtEveryOffset runs the region repeatedly, panicking at each
// successive callback invocation, and checks containment + scratch
// balance every time. region invokes its callback some number of times
// per run; cb panics when the shared counter hits the arranged offset.
func panicAtEveryOffset(t *testing.T, name string, calls int, region func(cb func())) {
	t.Helper()
	// Cap the sweep so the quadratic total stays fast; the interesting
	// offsets (first call, block boundaries, last call) are covered by
	// striding from both ends.
	offsets := make([]int, 0, 64)
	for i := 0; i < calls && len(offsets) < 32; i += 1 + calls/32 {
		offsets = append(offsets, i)
	}
	offsets = append(offsets, calls-1)
	for _, off := range offsets {
		var count atomic.Int64
		target := int64(off)
		pe := recoverPanicError(t, func() {
			region(func() {
				if count.Add(1)-1 == target {
					panic(fmt.Sprintf("%s@%d", name, off))
				}
			})
		})
		if pe == nil {
			t.Fatalf("%s offset %d: no PanicError", name, off)
		}
		if b := parallel.ScratchStats(); !b.Balanced() {
			t.Fatalf("%s offset %d: scratch imbalance %d gets %d puts",
				name, off, b.Gets, b.Puts)
		}
	}
}

// TestWithScratchReleasesOnPanic pins the scoped-borrow contract at its
// source: a panic inside the callback still returns the buffer.
func TestWithScratchReleasesOnPanic(t *testing.T) {
	before := parallel.ScratchStats()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the callback's panic did not propagate")
			}
		}()
		parallel.WithScratch(64, func(s []uint32) { panic("inside the borrow") })
	}()
	after := parallel.ScratchStats()
	if after.Gets != before.Gets+1 || !after.Balanced() {
		t.Errorf("after a panicking borrow: %d gets, %d puts (was %d/%d)",
			after.Gets, after.Puts, before.Gets, before.Puts)
	}
}

// TestScratchBalanceUnderPanicEverywhere pins the satellite: for every
// primitive that borrows pooled scratch, a callback panic at every
// injection offset leaves the borrow/return counts equal.
func TestScratchBalanceUnderPanicEverywhere(t *testing.T) {
	defer harness.LeakCheck(t)()
	const n = 4096
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i)
	}
	buf := make([]uint32, 0, n)

	cases := []struct {
		name   string
		calls  int
		region func(cb func())
	}{
		{"For", n, func(cb func()) {
			parallel.For(n, 1, func(i int) { cb() })
		}},
		{"Workers", n, func(cb func()) {
			parallel.Workers(n, parallel.Procs(), func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					cb()
				}
			})
		}},
		// Scan takes no user callback, so its deferred release cannot be
		// unwound by user code directly (the chaos harness injects panics
		// inside its workers instead). Here a sibling chunk panics while
		// the Scan holds scratch, checking the panic joins it and the
		// balance holds; cb fires once per run.
		{"Scan", 1, func(cb func()) {
			dst := make([]uint32, n)
			src := make([]uint32, n)
			parallel.For(2, 1, func(i int) {
				if i == 0 {
					parallel.Scan(dst, src)
				} else {
					cb()
				}
			})
		}},
		{"Filter", n, func(cb func()) {
			parallel.Filter(in, func(v uint32) bool { cb(); return v%2 == 0 })
		}},
		{"FilterInto", n, func(cb func()) {
			parallel.FilterInto(buf, in, func(v uint32) bool { cb(); return v%2 == 0 })
		}},
		{"FilterAppend", n, func(cb func()) {
			parallel.FilterAppend(buf[:0], in, func(v uint32) bool { cb(); return v%2 == 0 })
		}},
		{"PackIndices", n, func(cb func()) {
			parallel.PackIndices(n, func(i int) bool { cb(); return i%2 == 0 })
		}},
		{"Reduce", n, func(cb func()) {
			parallel.Sum(n, 1, func(i int) int64 { cb(); return int64(i) })
		}},
		{"SortByKey", n, func(cb func()) {
			tmp := append([]uint32(nil), in...)
			parallel.SortByKey(tmp, func(v uint32) uint64 { cb(); return uint64(v ^ 0x5a5a) })
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			panicAtEveryOffset(t, tc.name, tc.calls, tc.region)
		})
	}
}
