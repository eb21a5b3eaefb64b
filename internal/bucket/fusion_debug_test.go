//go:build julienne_debug

package bucket

import (
	"strings"
	"testing"
)

// This file proves the julienne_debug fusion invariants are load-
// bearing: each assertion of DESIGN.md §11 is deliberately violated —
// through the public API where a caller bug can reach it, directly
// against the shadow checker where only internal corruption could —
// and the test requires the panic to trip with its documented message.

func expectDebugPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestDebugSpanClosedWithPending trips the drain-before-extract rule on
// both implementations: extracting again while lazy identifiers are
// pending abandons them.
func TestDebugSpanClosedWithPending(t *testing.T) {
	for _, name := range []string{"par", "seq"} {
		d := []ID{0, 0, 4}
		dfn := func(i uint32) ID { return d[i] }
		var b Structure
		if name == "par" {
			b = New(len(d), dfn, Increasing, Options{OpenBuckets: 8})
		} else {
			b = NewSeq(len(d), dfn, Increasing)
		}
		if _, _, ids := b.NextBucketFused(); len(ids) != 3 {
			t.Fatalf("%s: fused frontier %v, want 3 identifiers", name, ids)
		}
		// Same-bucket reinsertion into the active span: lands in the
		// lazy buffer.
		dest := b.GetBucket(0, 0)
		b.UpdateBuckets(1, func(int) (uint32, Dest) { return 0, dest })
		expectDebugPanic(t, "undrained lazy identifiers", func() { b.NextBucket() })
	}
}

// TestDebugLazySlotWithoutSpan trips the destination-validity rule: the
// lazy slot is only addressable while a fused span is active, so a
// fabricated Dest targeting it without one is rejected.
func TestDebugLazySlotWithoutSpan(t *testing.T) {
	d := []ID{0}
	b := New(len(d), func(i uint32) ID { return d[i] }, Increasing, Options{OpenBuckets: 4})
	lazyDest := Dest(4 + 1) // nB + 1
	expectDebugPanic(t, "targets the lazy slot without an active fused span", func() {
		b.UpdateBuckets(1, func(int) (uint32, Dest) { return 0, lazyDest })
	})
}

// TestDebugStructureLazyResidue trips the structure walk's rule that
// the lazy slot is empty between spans, by planting a chunk in it
// behind the API's back.
func TestDebugStructureLazyResidue(t *testing.T) {
	d := []ID{0}
	b := New(len(d), func(i uint32) ID { return d[i] }, Increasing, Options{OpenBuckets: 4})
	lz := &b.bkts[b.nB+1]
	lz.chunks = append(lz.chunks, []uint32{0})
	lz.n = 1
	expectDebugPanic(t, "lazy slot holds 1 identifiers without an active fused span", func() {
		b.debugCheckStructure()
	})
}

// TestDebugDoubleLazyCopy trips the uniqueness rule end-to-end: a
// caller that issues two in-span moves for the same identifier creates
// two live lazy copies, which the drain detects.
func TestDebugDoubleLazyCopy(t *testing.T) {
	d := []ID{0, 3}
	dfn := func(i uint32) ID { return d[i] }
	b := New(len(d), dfn, Increasing, Options{OpenBuckets: 8})
	if _, _, ids := b.NextBucketFused(); len(ids) != 2 {
		t.Fatalf("fused frontier %v, want 2 identifiers", ids)
	}
	d[0] = 1
	dest := b.GetBucket(0, 1)
	// Two separate updates, same identifier, both into the active span.
	b.UpdateBuckets(1, func(int) (uint32, Dest) { return 0, dest })
	b.UpdateBuckets(1, func(int) (uint32, Dest) { return 0, dest })
	expectDebugPanic(t, "drained twice from the fused span", func() { b.DrainLazy() })
}

// TestDebugCheckFusedViolations drives the fused-extraction checker
// directly with fabricated evidence for the invariants no API sequence
// can violate unless the implementation itself is broken.
func TestDebugCheckFusedViolations(t *testing.T) {
	dOf := func(vals map[uint32]ID) func(uint32) ID {
		return func(i uint32) ID { return vals[i] }
	}
	span := func(lo, hi ID) fusedSpan { return fusedSpan{lo: lo, hi: hi, active: true} }

	t.Run("non-contiguous range", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "not contiguous in traversal order", func() {
			dbg.checkFused(Increasing, 5, 3, []uint32{0}, -1, dOf(map[uint32]ID{0: 4}), span(3, 5), Stats{})
		})
	})
	t.Run("empty frontier", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "returned an empty frontier", func() {
			dbg.checkFused(Increasing, 2, 4, nil, -1, dOf(nil), span(2, 4), Stats{})
		})
	})
	t.Run("identifier outside range", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "outside it", func() {
			dbg.checkFused(Increasing, 2, 4, []uint32{0}, -1, dOf(map[uint32]ID{0: 9}), span(2, 4), Stats{})
		})
	})
	t.Run("endpoint not witnessed", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "endpoints not both witnessed", func() {
			dbg.checkFused(Increasing, 2, 4, []uint32{0}, -1, dOf(map[uint32]ID{0: 3}), span(2, 4), Stats{})
		})
	})
	t.Run("duplicate identifier", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "extracted twice from fused range", func() {
			dbg.checkFused(Increasing, 2, 4, []uint32{0, 0},
				-1, dOf(map[uint32]ID{0: 2}), span(2, 4), Stats{})
		})
	})
	t.Run("monotonicity across rounds", func(t *testing.T) {
		dbg := debugState{last: 7, hasLast: true}
		expectDebugPanic(t, "after 7 under Increasing order", func() {
			dbg.checkFused(Increasing, 2, 4, []uint32{0, 1},
				-1, dOf(map[uint32]ID{0: 2, 1: 4}), span(2, 4), Stats{})
		})
	})
	t.Run("stats divergence", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "fused-extraction bookkeeping", func() {
			// A valid fused round whose Stats claim nothing was extracted.
			dbg.checkFused(Increasing, 2, 2, []uint32{0}, -1, dOf(map[uint32]ID{0: 2}), span(2, 2), Stats{})
		})
	})
}

// TestDebugCheckLazyDrainViolations does the same for the drain
// checker.
func TestDebugCheckLazyDrainViolations(t *testing.T) {
	dOf := func(vals map[uint32]ID) func(uint32) ID {
		return func(i uint32) ID { return vals[i] }
	}
	active := fusedSpan{lo: 2, hi: 4, active: true}

	t.Run("inactive span", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "without an active fused span", func() {
			dbg.checkLazyDrain([]uint32{0}, -1, dOf(map[uint32]ID{0: 2}), fusedSpan{}, Stats{})
		})
	})
	t.Run("identifier outside span", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "outside the fused span", func() {
			dbg.checkLazyDrain([]uint32{0}, -1, dOf(map[uint32]ID{0: 7}), active, Stats{})
		})
	})
	t.Run("duplicate identifier", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "drained twice", func() {
			dbg.checkLazyDrain([]uint32{0, 0}, -1, dOf(map[uint32]ID{0: 3}), active, Stats{})
		})
	})
	t.Run("stats divergence", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "lazy-drain bookkeeping", func() {
			dbg.checkLazyDrain([]uint32{0}, -1, dOf(map[uint32]ID{0: 3}), active, Stats{})
		})
	})
}
