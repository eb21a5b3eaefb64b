//go:build julienne_debug

package bucket

import "fmt"

// This file is the julienne_debug half of the assertion pair declared
// in debug_off.go: building with `-tags julienne_debug` compiles the
// bucket structure's internal contract into every operation, so the
// property tests in internal/proptest exercise the §3 invariants
// directly rather than only end-to-end algorithm outputs. The checks
// are deliberately O(work) per operation — debug builds are for tests,
// not benchmarks.
//
// Invariants asserted:
//
//   - extraction liveness: every identifier returned by NextBucket has
//     D(i) equal to the returned bucket id, is unique within the
//     returned slice, and is a valid identifier;
//   - traversal monotonicity: bucket ids returned by NextBucket are
//     non-decreasing under Increasing order (non-increasing under
//     Decreasing) — non-strict, because algorithms legally reinsert
//     into the current bucket;
//   - update destinations: every non-None Dest passed to UpdateBuckets
//     addresses a real physical slot (open range or overflow);
//   - bookkeeping: each UpdateBuckets call moves + skips exactly its k
//     requests, and the cumulative Stats counters agree with shadow
//     counts maintained here;
//   - single live copy: across the whole structure, each identifier
//     has at most one live copy (a stored copy whose slot matches its
//     current D value) — stale copies from lazy deletion may be
//     plentiful, live ones may not;
//   - fused extraction (DESIGN.md §11): the fused range is contiguous
//     and non-empty with both endpoints witnessed by a live
//     identifier, every returned identifier's D falls inside the
//     range, lazy-slot destinations only occur while a span is
//     active, every lazily drained identifier's D falls inside the
//     active span, and a span may not close with undrained lazy
//     identifiers;
//   - arena lifetime: the slice NextBucket, NextBucketFused or
//     DrainLazy returns is valid until the next of those calls or the
//     return of the next UpdateBuckets. At that point the slice the
//     caller may still hold is poisoned — every element overwritten
//     with Nil and its storage dropped from the arena, so later rounds
//     never write into it — and a stale read indexes the caller's
//     per-identifier arrays out of range instead of silently seeing
//     another round's identifiers.

// DebugEnabled reports whether invariant assertions are compiled in.
const DebugEnabled = true

// debugState is the shadow bookkeeping behind the assertions.
type debugState struct {
	last      ID
	hasLast   bool
	extracted int64
	returned  int64
	moved     int64
	skipped   int64
	// handed is the arena slice the last extraction call returned, kept
	// so poison can reach the copy of it the caller still holds.
	handed []uint32
}

// poison ends the lifetime of the last handed-out arena slice,
// reporting whether there was one (the structure then drops the buffer
// behind it, so the stale slice stays all-Nil for good).
func (d *debugState) poison() bool {
	if d.handed == nil {
		return false
	}
	for i := range d.handed {
		d.handed[i] = uint32(Nil)
	}
	d.handed = nil
	return true
}

// checkFused asserts the extraction contract — NextBucket is the
// first == last case: contiguous non-empty range in traversal order
// with witnessed endpoints, monotonicity against the previous round,
// and per-identifier liveness/uniqueness, then folds the frontier into
// the extraction shadow counters (one call is one BucketsReturned).
func (d *debugState) checkFused(order Order, first, last ID, live []uint32, n int, dfn func(uint32) ID, span fusedSpan, s Stats) {
	if (order == Increasing && first > last) || (order == Decreasing && first < last) {
		panic(fmt.Sprintf("bucket debug: fused range [%d, %d] is not contiguous in traversal order", first, last))
	}
	if len(live) == 0 {
		panic(fmt.Sprintf("bucket debug: fused range [%d, %d] returned an empty frontier", first, last))
	}
	if d.hasLast {
		if order == Increasing && first < d.last {
			panic(fmt.Sprintf("bucket debug: fused run starts at %d after %d under Increasing order", first, d.last))
		}
		if order == Decreasing && first > d.last {
			panic(fmt.Sprintf("bucket debug: fused run starts at %d after %d under Decreasing order", first, d.last))
		}
	}
	d.last, d.hasLast = last, true
	seen := make(map[uint32]struct{}, len(live))
	firstSeen, lastSeen := false, false
	for _, id := range live {
		if n >= 0 && int(id) >= n {
			panic(fmt.Sprintf("bucket debug: fused extraction returned identifier %d out of range [0,%d)", id, n))
		}
		got := dfn(id)
		if !span.contains(got) {
			panic(fmt.Sprintf("bucket debug: fused range [%d, %d] returned identifier %d with D(i)=%d outside it", first, last, id, got))
		}
		if got == first {
			firstSeen = true
		}
		if got == last {
			lastSeen = true
		}
		if _, dup := seen[id]; dup {
			panic(fmt.Sprintf("bucket debug: identifier %d extracted twice from fused range [%d, %d]", id, first, last))
		}
		seen[id] = struct{}{}
	}
	if !firstSeen || !lastSeen {
		panic(fmt.Sprintf("bucket debug: fused range [%d, %d] endpoints not both witnessed by a live identifier (first=%v last=%v)", first, last, firstSeen, lastSeen))
	}
	d.handed = live
	d.extracted += int64(len(live))
	d.returned++
	if s.Extracted != d.extracted || s.BucketsReturned != d.returned {
		panic(fmt.Sprintf("bucket debug: Stats fused-extraction bookkeeping (Extracted=%d BucketsReturned=%d) diverged from shadow (%d, %d)",
			s.Extracted, s.BucketsReturned, d.extracted, d.returned))
	}
}

// checkLazyDrain asserts that every lazily drained identifier is
// unique and still maps into the active span, then folds the drain
// into the extraction shadow (a drain is extraction work but not a
// returned bucket).
func (d *debugState) checkLazyDrain(live []uint32, n int, dfn func(uint32) ID, span fusedSpan, s Stats) {
	if !span.active {
		panic("bucket debug: DrainLazy returned identifiers without an active fused span")
	}
	seen := make(map[uint32]struct{}, len(live))
	for _, id := range live {
		if n >= 0 && int(id) >= n {
			panic(fmt.Sprintf("bucket debug: lazy drain returned identifier %d out of range [0,%d)", id, n))
		}
		if got := dfn(id); !span.contains(got) {
			panic(fmt.Sprintf("bucket debug: lazy drain returned identifier %d with D(i)=%d outside the fused span [%d, %d]", id, got, span.lo, span.hi))
		}
		if _, dup := seen[id]; dup {
			panic(fmt.Sprintf("bucket debug: identifier %d drained twice from the fused span [%d, %d]", id, span.lo, span.hi))
		}
		seen[id] = struct{}{}
	}
	d.handed = live
	d.extracted += int64(len(live))
	if s.Extracted != d.extracted {
		panic(fmt.Sprintf("bucket debug: Stats lazy-drain bookkeeping (Extracted=%d) diverged from shadow (%d)", s.Extracted, d.extracted))
	}
}

// checkSpanClosed asserts a fused span is not abandoned with pending
// lazy identifiers: a conforming caller drains until empty before the
// next extraction call.
func (d *debugState) checkSpanClosed(pending int) {
	if pending > 0 {
		panic(fmt.Sprintf("bucket debug: fused span closed with %d undrained lazy identifiers", pending))
	}
}

func (d *debugState) checkUpdateTotals(k int, moved, skipped int64, s Stats) {
	if moved+skipped != int64(k) {
		panic(fmt.Sprintf("bucket debug: UpdateBuckets(k=%d) accounted for moved=%d + skipped=%d requests", k, moved, skipped))
	}
	d.moved += moved
	d.skipped += skipped
	if s.Moved != d.moved || s.Skipped != d.skipped {
		panic(fmt.Sprintf("bucket debug: Stats update bookkeeping (Moved=%d Skipped=%d) diverged from shadow (%d, %d)",
			s.Moved, s.Skipped, d.moved, d.skipped))
	}
}

func (b *Par) debugReset() { b.dbg = debugState{} }

func (b *Par) debugPoisonArena() {
	if b.dbg.poison() {
		b.scr.live = nil
	}
}

func (b *Par) debugCheckExtract(first, last ID, live []uint32) {
	b.dbg.checkFused(b.order, first, last, live, b.n, b.d, newFusedSpan(b.order, first, last), b.Stats())
}

func (b *Par) debugCheckUpdate(k int, f func(int) (uint32, Dest)) {
	for j := 0; j < k; j++ {
		id, dest := f(j)
		if dest == None {
			continue
		}
		if int(id) >= b.n {
			panic(fmt.Sprintf("bucket debug: update %d targets identifier %d out of range [0,%d)", j, id, b.n))
		}
		if int(dest) == b.nB+1 {
			// The lazy slot is only addressable while a fused span is
			// active; GetBucket never produces it otherwise.
			if !b.span.active {
				panic(fmt.Sprintf("bucket debug: update %d targets the lazy slot without an active fused span", j))
			}
			continue
		}
		if int(dest) > b.nB {
			panic(fmt.Sprintf("bucket debug: update %d has destination slot %d beyond overflow slot %d", j, dest, b.nB))
		}
	}
}

func (b *Par) debugCheckLazyDrain(live []uint32) {
	b.dbg.checkLazyDrain(live, b.n, b.d, b.span, b.Stats())
}

func (b *Par) debugCheckSpanClosed(pending int) {
	b.dbg.checkSpanClosed(pending)
}

func (b *Par) debugCheckUpdateTotals(k int, moved, skipped int64) {
	b.dbg.checkUpdateTotals(k, moved, skipped, b.Stats())
}

// debugCheckStructure walks every physical slot and asserts the single
// live copy invariant: an identifier may have stale copies anywhere,
// but at most one copy whose location matches its current D value
// (open slot with matching logical id, or the overflow slot while D is
// beyond the open range). Two live copies of one identifier would make
// NextBucket extract it twice.
func (b *Par) debugCheckStructure() {
	if b.done {
		return
	}
	live := make(map[uint32]int)
	check := func(slot int, ids []uint32, overflow, lazy bool) {
		for _, id := range ids {
			if int(id) >= b.n {
				panic(fmt.Sprintf("bucket debug: slot %d stores identifier %d out of range [0,%d)", slot, id, b.n))
			}
			d := b.d(id)
			isLive := false
			switch {
			case lazy:
				isLive = b.span.contains(d)
			case overflow:
				isLive = b.beyond(d)
			default:
				isLive = d == b.logical(slot)
			}
			if isLive {
				live[id]++
				if live[id] > 1 {
					panic(fmt.Sprintf("bucket debug: identifier %d has %d live copies (D=%d)", id, live[id], d))
				}
			}
		}
	}
	for slot := 0; slot <= b.nB+1; slot++ {
		bk := &b.bkts[slot]
		if slot == b.nB+1 && !b.span.active && bk.n != 0 {
			panic(fmt.Sprintf("bucket debug: lazy slot holds %d identifiers without an active fused span", bk.n))
		}
		n := 0
		for _, chunk := range bk.chunks {
			check(slot, chunk, slot == b.nB, slot == b.nB+1)
			n += len(chunk)
		}
		if n != bk.n {
			panic(fmt.Sprintf("bucket debug: slot %d chunks hold %d identifiers but n is %d", slot, n, bk.n))
		}
	}
}

// Seq hands out a consumed bucket's own storage or a fresh slice, which
// later rounds never touch; only the reused lazy-drain buffer needs
// dropping.
func (s *Seq) debugPoisonArena() {
	if s.dbg.poison() {
		s.lazyOut = nil
	}
}

func (s *Seq) debugCheckExtract(first, last ID, live []uint32) {
	s.dbg.checkFused(s.order, first, last, live, -1, s.d, newFusedSpan(s.order, first, last), s.Stats())
}

func (s *Seq) debugCheckUpdateTotals(k int, moved, skipped int64) {
	s.dbg.checkUpdateTotals(k, moved, skipped, s.Stats())
}

func (s *Seq) debugCheckLazyDrain(live []uint32) {
	s.dbg.checkLazyDrain(live, -1, s.d, s.span, s.Stats())
}

func (s *Seq) debugCheckSpanClosed(pending int) {
	s.dbg.checkSpanClosed(pending)
}
