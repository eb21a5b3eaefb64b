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
//   - fill's seed: every seeded identifier is a valid identifier,
//     listed once, and every identifier outside the seed has initial
//     bucket Nil, so filling from the seed alone misses none;
//   - single live copy: across the whole structure, each identifier
//     has at most one live copy (a stored copy whose slot matches its
//     current D value) — stale copies from lazy deletion may be
//     plentiful, live ones may not;
//   - arena lifetime: the slice NextBucket returns is valid until the
//     next NextBucket call or the return of the next UpdateBuckets. At
//     that point the slice the caller may still hold is poisoned —
//     every element overwritten with Nil and its storage dropped from
//     the arena, so later rounds never write into it — and a stale
//     read indexes the caller's per-identifier arrays out of range
//     instead of silently seeing another round's identifiers.

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

// checkExtract asserts the extraction contract: a non-empty frontier,
// monotonicity against the previous round, and per-identifier range,
// liveness (D(i) == id) and uniqueness; then it folds the frontier into
// the extraction shadow counters (one call is one BucketsReturned).
func (d *debugState) checkExtract(order Order, id ID, live []uint32, n int, dfn func(uint32) ID, s Stats) {
	if len(live) == 0 {
		panic(fmt.Sprintf("bucket debug: bucket %d returned an empty frontier", id))
	}
	if d.hasLast {
		if order == Increasing && id < d.last {
			panic(fmt.Sprintf("bucket debug: bucket %d extracted after %d under Increasing order", id, d.last))
		}
		if order == Decreasing && id > d.last {
			panic(fmt.Sprintf("bucket debug: bucket %d extracted after %d under Decreasing order", id, d.last))
		}
	}
	d.last, d.hasLast = id, true
	seen := make(map[uint32]struct{}, len(live))
	for _, v := range live {
		if n >= 0 && int(v) >= n {
			panic(fmt.Sprintf("bucket debug: extraction returned identifier %d out of range [0,%d)", v, n))
		}
		if got := dfn(v); got != id {
			panic(fmt.Sprintf("bucket debug: bucket %d returned identifier %d with D(i)=%d", id, v, got))
		}
		if _, dup := seen[v]; dup {
			panic(fmt.Sprintf("bucket debug: identifier %d extracted twice from bucket %d", v, id))
		}
		seen[v] = struct{}{}
	}
	d.handed = live
	d.extracted += int64(len(live))
	d.returned++
	if s.Extracted != d.extracted || s.BucketsReturned != d.returned {
		panic(fmt.Sprintf("bucket debug: Stats extraction bookkeeping (Extracted=%d BucketsReturned=%d) diverged from shadow (%d, %d)",
			s.Extracted, s.BucketsReturned, d.extracted, d.returned))
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

func (b *Par) debugPoisonArena() {
	if b.dbg.poison() {
		b.scr.live = nil
	}
}

func (b *Par) debugCheckExtract(id ID, live []uint32) {
	b.dbg.checkExtract(b.order, id, live, b.n, b.d, b.Stats())
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
		if int(dest) > b.nB {
			panic(fmt.Sprintf("bucket debug: update %d has destination slot %d beyond overflow slot %d", j, dest, b.nB))
		}
	}
}

func (b *Par) debugCheckUpdateTotals(k int, moved, skipped int64) {
	b.dbg.checkUpdateTotals(k, moved, skipped, b.Stats())
}

// debugCheckSeed asserts fill's seed contract (a nil seed names every
// identifier, so there is nothing to check).
func (b *Par) debugCheckSeed(seed []uint32) {
	if seed == nil {
		return
	}
	in := make([]bool, b.n)
	for _, id := range seed {
		if int(id) >= b.n {
			panic(fmt.Sprintf("bucket debug: seed identifier %d out of range [0,%d)", id, b.n))
		}
		if in[id] {
			panic(fmt.Sprintf("bucket debug: seed lists identifier %d twice", id))
		}
		in[id] = true
	}
	for i, seeded := range in {
		if d := b.d(uint32(i)); !seeded && d != Nil {
			panic(fmt.Sprintf("bucket debug: identifier %d is outside the seed but starts in bucket %d", i, d))
		}
	}
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
	check := func(slot int, ids []uint32, overflow bool) {
		for _, id := range ids {
			if int(id) >= b.n {
				panic(fmt.Sprintf("bucket debug: slot %d stores identifier %d out of range [0,%d)", slot, id, b.n))
			}
			d := b.d(id)
			isLive := d == b.logical(slot)
			if overflow {
				isLive = b.beyond(d)
			}
			if isLive {
				live[id]++
				if live[id] > 1 {
					panic(fmt.Sprintf("bucket debug: identifier %d has %d live copies (D=%d)", id, live[id], d))
				}
			}
		}
	}
	for slot := 0; slot <= b.nB; slot++ {
		bk := &b.bkts[slot]
		n := 0
		for _, chunk := range bk.chunks {
			check(slot, chunk, slot == b.nB)
			n += len(chunk)
		}
		if n != bk.n {
			panic(fmt.Sprintf("bucket debug: slot %d chunks hold %d identifiers but n is %d", slot, n, bk.n))
		}
	}
}

// Seq hands out a consumed bucket's own storage, which later rounds
// never touch, so poisoning needs to drop nothing.
func (s *Seq) debugPoisonArena() { s.dbg.poison() }

func (s *Seq) debugCheckExtract(id ID, live []uint32) {
	s.dbg.checkExtract(s.order, id, live, -1, s.d, s.Stats())
}

func (s *Seq) debugCheckUpdateTotals(k int, moved, skipped int64) {
	s.dbg.checkUpdateTotals(k, moved, skipped, s.Stats())
}
