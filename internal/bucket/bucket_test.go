package bucket

import (
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"julienne/internal/parallel"
	"julienne/internal/rng"
)

// --- basic semantics, both implementations -------------------------------

// makeBoth builds a Seq and a Par structure over the same D array.
func makeBoth(d []ID, order Order, opt Options) (*Seq, *Par) {
	get := func(i uint32) ID { return d[i] }
	return NewSeq(len(d), get, order), New(len(d), get, order, opt)
}

func asSet(ids []uint32) map[uint32]bool {
	m := make(map[uint32]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func drainAll(t *testing.T, s Structure) map[uint32]ID {
	t.Helper()
	got := map[uint32]ID{}
	prev := ID(0)
	first := true
	for {
		b, ids := s.NextBucket()
		if b == Nil {
			if ids != nil {
				t.Fatal("Nil bucket with identifiers")
			}
			return got
		}
		if len(ids) == 0 {
			t.Fatal("empty bucket returned")
		}
		if !first && b < prev {
			// callers of drainAll only use Increasing order
			t.Fatalf("buckets not monotone: %d after %d", b, prev)
		}
		prev, first = b, false
		for _, id := range ids {
			if _, dup := got[id]; dup {
				t.Fatalf("identifier %d extracted twice", id)
			}
			got[id] = b
		}
	}
}

func TestStaticExtractionIncreasing(t *testing.T) {
	// Static workload: no updates; each identifier must come out of its
	// initial bucket exactly once, in increasing bucket order.
	d := []ID{5, 3, 3, Nil, 0, 7, 3, 1000}
	for _, opt := range []Options{{}, {OpenBuckets: 2}, {OpenBuckets: 1}} {
		seq, par := makeBoth(d, Increasing, opt)
		for name, s := range map[string]Structure{"seq": seq, "par": par} {
			got := drainAll(t, s)
			if len(got) != 7 {
				t.Fatalf("%s opt=%+v: extracted %d ids, want 7", name, opt, len(got))
			}
			for id, b := range got {
				if d[id] != b {
					t.Fatalf("%s: id %d extracted from bucket %d, want %d", name, id, b, d[id])
				}
			}
		}
	}
}

func TestStaticExtractionDecreasing(t *testing.T) {
	d := []ID{5, 3, 3, Nil, 0, 7, 3}
	for _, opt := range []Options{{}, {OpenBuckets: 2}} {
		seq, par := makeBoth(d, Decreasing, opt)
		for name, s := range map[string]Structure{"seq": seq, "par": par} {
			var order []ID
			seen := map[uint32]bool{}
			for {
				b, ids := s.NextBucket()
				if b == Nil {
					break
				}
				order = append(order, b)
				for _, id := range ids {
					if seen[id] {
						t.Fatalf("%s: dup extraction of %d", name, id)
					}
					seen[id] = true
					if d[id] != b {
						t.Fatalf("%s: id %d from bucket %d want %d", name, id, b, d[id])
					}
				}
			}
			if len(seen) != 6 {
				t.Fatalf("%s opt=%+v: extracted %d ids, want 6", name, opt, len(seen))
			}
			if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] > order[j] }) {
				t.Fatalf("%s: buckets not decreasing: %v", name, order)
			}
		}
	}
}

func TestEmptyStructure(t *testing.T) {
	d := []ID{Nil, Nil, Nil}
	seq, par := makeBoth(d, Increasing, Options{})
	for name, s := range map[string]Structure{"seq": seq, "par": par} {
		if b, ids := s.NextBucket(); b != Nil || ids != nil {
			t.Fatalf("%s: expected exhausted structure", name)
		}
	}
}

func TestZeroIdentifiers(t *testing.T) {
	get := func(i uint32) ID { return 0 }
	for _, s := range []Structure{NewSeq(0, get, Increasing), New(0, get, Increasing, Options{})} {
		if b, _ := s.NextBucket(); b != Nil {
			t.Fatal("empty structure returned a bucket")
		}
	}
}

func TestGetBucketNoneCases(t *testing.T) {
	d := []ID{0, 1, 2, 3}
	seq, par := makeBoth(d, Increasing, Options{})
	for name, s := range map[string]Structure{"seq": seq, "par": par} {
		b, _ := s.NextBucket() // positions traversal at bucket 0
		if b != 0 {
			t.Fatalf("%s: first bucket %d", name, b)
		}
		if dst := s.GetBucket(2, Nil); dst != None {
			t.Fatalf("%s: GetBucket(next=Nil) = %d, want None", name, dst)
		}
		if dst := s.GetBucket(2, 2); dst != None {
			t.Fatalf("%s: GetBucket(prev==next) = %d, want None", name, dst)
		}
	}
}

func TestCurrentBucketReinsertion(t *testing.T) {
	// k-core's signature behaviour: identifiers inserted back into the
	// current bucket must be returned by a subsequent NextBucket call
	// with the same bucket id (§3.1: "the cur bucket can potentially be
	// returned more than once").
	d := []ID{0, 5, 5}
	for _, opt := range []Options{{}, {OpenBuckets: 2}} {
		seq, par := makeBoth(d, Increasing, opt)
		for name, s := range map[string]Structure{"seq": seq, "par": par} {
			b, ids := s.NextBucket()
			if b != 0 || len(ids) != 1 {
				t.Fatalf("%s: first extraction (%d,%v)", name, b, ids)
			}
			// Move identifier 1 into the current bucket.
			d[1] = 0
			dst := s.GetBucket(5, 0)
			if dst == None {
				t.Fatalf("%s: move into current bucket returned None", name)
			}
			s.UpdateBuckets(1, func(int) (uint32, Dest) { return 1, dst })
			b2, ids2 := s.NextBucket()
			if b2 != 0 || len(ids2) != 1 || ids2[0] != 1 {
				t.Fatalf("%s: reinsertion not returned: (%d,%v)", name, b2, ids2)
			}
			b3, ids3 := s.NextBucket()
			if b3 != 5 || len(ids3) != 1 || ids3[0] != 2 {
				t.Fatalf("%s: final bucket (%d,%v)", name, b3, ids3)
			}
			d[1] = 5 // restore for the next implementation under test
		}
	}
}

func TestLazyDeletionDropsStaleCopies(t *testing.T) {
	// Move an identifier forward twice before its bucket is visited:
	// only the final copy may surface.
	d := []ID{0, 1}
	seq, par := makeBoth(d, Increasing, Options{})
	for name, s := range map[string]Structure{"seq": seq, "par": par} {
		d[1] = 1
		// Move id 1 from bucket 1 to 3, then from 3 to 2.
		d[1] = 3
		s.UpdateBuckets(1, func(int) (uint32, Dest) { return 1, s.GetBucket(1, 3) })
		d[1] = 2
		s.UpdateBuckets(1, func(int) (uint32, Dest) { return 1, s.GetBucket(3, 2) })
		got := drainAll(t, s)
		if got[1] != 2 {
			t.Fatalf("%s: id 1 extracted from %d, want 2", name, got[1])
		}
		if got[0] != 0 {
			t.Fatalf("%s: id 0 extracted from %d, want 0", name, got[0])
		}
	}
}

func TestMoveToNilNeverReturned(t *testing.T) {
	d := []ID{0, 4}
	seq, par := makeBoth(d, Increasing, Options{})
	for name, s := range map[string]Structure{"seq": seq, "par": par} {
		d[1] = 4
		prev := d[1]
		d[1] = Nil
		s.UpdateBuckets(1, func(int) (uint32, Dest) { return 1, s.GetBucket(prev, Nil) })
		got := drainAll(t, s)
		if _, ok := got[1]; ok {
			t.Fatalf("%s: identifier moved to Nil was extracted", name)
		}
		d[1] = 4
	}
}

// --- overflow / open-range behaviour (§3.3) ------------------------------

func TestOverflowRangeAdvance(t *testing.T) {
	// With nB = 4 and buckets spread over [0, 100], identifiers beyond
	// the open range must sit in overflow and surface correctly after
	// range advances.
	n := 500
	d := make([]ID, n)
	r := rng.New(1)
	for i := range d {
		d[i] = ID(r.IntN(101))
	}
	get := func(i uint32) ID { return d[i] }
	par := New(n, get, Increasing, Options{OpenBuckets: 4})
	if _, _, overflow := par.CurrentRange(); overflow == 0 {
		t.Fatal("expected identifiers in overflow with nB=4")
	}
	got := drainAll(t, par)
	if len(got) != n {
		t.Fatalf("extracted %d ids, want %d", len(got), n)
	}
	for id, b := range got {
		if d[id] != b {
			t.Fatalf("id %d from bucket %d want %d", id, b, d[id])
		}
	}
	if par.Stats().RangeAdvances == 0 {
		t.Fatal("expected at least one range advance")
	}
}

func TestRangeAdvanceSkipsEmptyRanges(t *testing.T) {
	// Buckets 0 and 1<<20 only: the traversal must jump directly, not
	// walk ~8000 empty ranges.
	d := []ID{0, 1 << 20}
	get := func(i uint32) ID { return d[i] }
	par := New(2, get, Increasing, Options{OpenBuckets: 128})
	got := drainAll(t, par)
	if got[0] != 0 || got[1] != 1<<20 {
		t.Fatalf("got %v", got)
	}
	if adv := par.Stats().RangeAdvances; adv != 1 {
		t.Fatalf("RangeAdvances=%d, want 1 (direct jump)", adv)
	}
}

func TestMovesWithinOverflowAreFree(t *testing.T) {
	// An identifier logically moving between two out-of-range buckets
	// must not be physically moved (§3.3).
	d := []ID{0, 1000}
	get := func(i uint32) ID { return d[i] }
	par := New(2, get, Increasing, Options{OpenBuckets: 8})
	d[1] = 900
	if dst := par.GetBucket(1000, 900); dst != None {
		t.Fatalf("overflow->overflow move got dest %d, want None", dst)
	}
	moved := par.Stats().Moved
	par.UpdateBuckets(1, func(int) (uint32, Dest) { return 1, par.GetBucket(1000, 900) })
	if par.Stats().Moved != moved {
		t.Fatal("overflow->overflow move incremented Moved")
	}
	got := drainAll(t, par)
	if got[1] != 900 {
		t.Fatalf("id 1 extracted from %d, want 900", got[1])
	}
}

func TestDecreasingOverflow(t *testing.T) {
	n := 300
	d := make([]ID, n)
	r := rng.New(3)
	for i := range d {
		d[i] = ID(r.IntN(64))
	}
	get := func(i uint32) ID { return d[i] }
	par := New(n, get, Decreasing, Options{OpenBuckets: 4})
	seen := map[uint32]ID{}
	last := ID(1 << 30)
	for {
		b, ids := par.NextBucket()
		if b == Nil {
			break
		}
		if b > last {
			t.Fatalf("buckets not decreasing: %d after %d", b, last)
		}
		last = b
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				t.Fatalf("dup extraction %d", id)
			}
			seen[id] = b
		}
	}
	if len(seen) != n {
		t.Fatalf("extracted %d want %d", len(seen), n)
	}
	for id, b := range seen {
		if d[id] != b {
			t.Fatalf("id %d from %d want %d", id, b, d[id])
		}
	}
}

// --- stats ----------------------------------------------------------------

func TestStatsCounting(t *testing.T) {
	d := []ID{0, 0, 1}
	_, par := makeBoth(d, Increasing, Options{})
	b, ids := par.NextBucket()
	if b != 0 || len(ids) != 2 {
		t.Fatalf("unexpected first bucket (%d, %v)", b, ids)
	}
	st := par.Stats()
	if st.Extracted != 2 || st.BucketsReturned != 1 {
		t.Fatalf("stats after extract: %+v", st)
	}
	// One real move, one skipped.
	d[2] = 5
	dests := []Dest{par.GetBucket(1, 5), None}
	idsArr := []uint32{2, 0}
	par.UpdateBuckets(2, func(j int) (uint32, Dest) { return idsArr[j], dests[j] })
	st = par.Stats()
	if st.Moved != 1 {
		t.Fatalf("Moved=%d want 1", st.Moved)
	}
	if st.Skipped != 1 {
		t.Fatalf("Skipped=%d want 1", st.Skipped)
	}
	if st.Throughput() != 3 {
		t.Fatalf("Throughput=%d want 3", st.Throughput())
	}
}

// --- differential test: Par vs Seq under a dynamic workload ---------------

// runDifferential drives both implementations through an identical
// microbenchmark-style dynamic workload (§3.4): each round extracts a
// bucket, then each extracted identifier updates up to `fanout`
// pseudo-random other identifiers to bucket max(cur, D(v)/2), or Nil if
// D(v) <= cur. Extracted identifiers are retired by setting D to Nil.
// About one identifier in every `live` starts in a bucket (1: all of
// them), the rest at Nil. A third structure, a Par filled from the list
// of identifiers that start in a bucket (fill's seed), must match the
// one filled over [0, n) exactly: the same bucket and identifiers in
// the same order, Stats and CurrentRange after every round.
func runDifferential(t *testing.T, n, fanout int, order Order, opt Options, seed, live uint64) {
	t.Helper()
	d := make([]ID, n)
	initial := make([]ID, n)
	var bucketed []uint32
	for i := range d {
		d[i] = ID(rng.UintNAt(seed, uint64(i), 1000))
		if live > 1 && rng.UintNAt(seed^0x5eed, uint64(i), live) != 0 {
			d[i] = Nil
		} else {
			bucketed = append(bucketed, uint32(i))
		}
		initial[i] = d[i]
	}
	get := func(i uint32) ID { return d[i] }
	seq := NewSeq(n, get, order)
	par := New(n, get, order, opt)
	seeded := new(Par)
	seeded.fill(n, bucketed, get, order, opt)
	sameAsSeeded := func(round int, pb ID, pids []uint32) {
		t.Helper()
		if qb, qids := seeded.NextBucket(); qb != pb || !slices.Equal(qids, pids) {
			t.Fatalf("round %d: seeded fill extracted bucket %d %v, full fill bucket %d %v", round, qb, qids, pb, pids)
		}
		if qs, ps := seeded.Stats(), par.Stats(); qs != ps {
			t.Fatalf("round %d: seeded fill's stats %+v, full fill's %+v", round, qs, ps)
		}
		qlo, qhi, qover := seeded.CurrentRange()
		if plo, phi, pover := par.CurrentRange(); qlo != plo || qhi != phi || qover != pover {
			t.Fatalf("round %d: seeded fill's range (%d, %d, %d), full fill's (%d, %d, %d)", round, qlo, qhi, qover, plo, phi, pover)
		}
	}

	extracted := map[uint32]bool{}
	round := 0
	for {
		round++
		if round > 100000 {
			t.Fatal("differential run did not terminate")
		}
		sb, sids := seq.NextBucket()
		pb, pids := par.NextBucket()
		if sb != pb {
			t.Fatalf("round %d: bucket mismatch seq=%d par=%d", round, sb, pb)
		}
		sameAsSeeded(round, pb, pids)
		if sb == Nil {
			break
		}
		ss, ps := asSet(sids), asSet(pids)
		if len(ss) != len(ps) {
			t.Fatalf("round %d bucket %d: sizes %d vs %d", round, sb, len(ss), len(ps))
		}
		for id := range ss {
			if !ps[id] {
				t.Fatalf("round %d bucket %d: id %d missing from par", round, sb, id)
			}
		}
		cur := sb
		// Retire extracted identifiers.
		for _, id := range sids {
			if extracted[id] {
				t.Fatalf("id %d extracted twice", id)
			}
			extracted[id] = true
			d[id] = Nil
		}
		// Compute updates against the shared logical state.
		type upd struct {
			id   uint32
			prev ID
			next ID
		}
		var updates []upd
		for _, id := range sids {
			for j := 0; j < fanout; j++ {
				v := uint32(rng.UintNAt(seed^0xbeef, uint64(round)<<20|uint64(id)<<4|uint64(j), uint64(n)))
				if d[v] == Nil {
					continue
				}
				prev := d[v]
				var next ID
				moreExtreme := prev > cur
				if order == Decreasing {
					moreExtreme = prev < cur
				}
				if moreExtreme {
					next = max(cur, prev/2)
					if order == Decreasing {
						next = min(cur, prev+(prev/2)+1)
						if next > cur {
							next = cur
						}
					}
				} else {
					next = Nil
				}
				if next == Nil {
					d[v] = Nil
				} else {
					d[v] = next
				}
				updates = append(updates, upd{v, prev, next})
			}
		}
		// Apply to each structure with its own GetBucket.
		sDests := make([]Dest, len(updates))
		pDests := make([]Dest, len(updates))
		qDests := make([]Dest, len(updates))
		for i, u := range updates {
			sDests[i] = seq.GetBucket(u.prev, u.next)
			pDests[i] = par.GetBucket(u.prev, u.next)
			qDests[i] = seeded.GetBucket(u.prev, u.next)
		}
		seq.UpdateBuckets(len(updates), func(j int) (uint32, Dest) { return updates[j].id, sDests[j] })
		par.UpdateBuckets(len(updates), func(j int) (uint32, Dest) { return updates[j].id, pDests[j] })
		seeded.UpdateBuckets(len(updates), func(j int) (uint32, Dest) { return updates[j].id, qDests[j] })
	}
	// Every initially-bucketed identifier must either have been
	// extracted or retired via a Nil move.
	for i := range d {
		if initial[i] != Nil && !extracted[uint32(i)] && d[i] != Nil {
			t.Fatalf("id %d lost: D=%d", i, d[i])
		}
	}
}

func TestDifferentialIncreasing(t *testing.T) {
	for _, opt := range []Options{{}, {OpenBuckets: 3}, {OpenBuckets: 16}} {
		for _, live := range []uint64{1, 16} {
			runDifferential(t, 2000, 4, Increasing, opt, 11, live)
		}
	}
}

func TestDifferentialDecreasing(t *testing.T) {
	for _, opt := range []Options{{}, {OpenBuckets: 3}} {
		for _, live := range []uint64{1, 16} {
			runDifferential(t, 2000, 4, Decreasing, opt, 13, live)
		}
	}
}

func TestDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runDifferential(t, 20000, 8, Increasing, Options{OpenBuckets: 128}, 17, 1)
	runDifferential(t, 20000, 8, Increasing, Options{OpenBuckets: 128}, 17, 64)
}

// TestSeededFillOfNothing: a structure filled from an empty seed, or
// from a seed whose identifiers all start at Nil, is exhausted at once
// in both orders, as one filled over [0, n) is when every identifier
// starts at Nil.
func TestSeededFillOfNothing(t *testing.T) {
	d := make([]ID, 64)
	for i := range d {
		d[i] = Nil
	}
	get := func(i uint32) ID { return d[i] }
	for _, order := range []Order{Increasing, Decreasing} {
		for _, seed := range [][]uint32{{}, {0, 7, 63}} {
			b := new(Par)
			b.fill(len(d), seed, get, order, Options{})
			full := New(len(d), get, order, Options{})
			for name, s := range map[string]*Par{"seeded": b, "full": full} {
				if id, ids := s.NextBucket(); id != Nil || ids != nil {
					t.Errorf("order %d seed %v: %s fill extracted bucket %d %v, want none", order, seed, name, id, ids)
				}
				if st := s.Stats(); st != (Stats{}) {
					t.Errorf("order %d seed %v: %s fill's stats %+v, want zero", order, seed, name, st)
				}
			}
		}
	}
}

// TestBulkInsertReadsDOnce: the one bulk insert behind New, Loop.With
// and a range advance reads d once per identifier it inserts. A fill
// over [0, n) or from a seed reads it once per identifier; a NextBucket
// that advances the range reads it once per overflow copy, stale ones
// included, plus once per copy its compaction of the new first bucket
// visits. Both orders run at P=1 and at P=2 past the fork cut-off,
// where the anchor pass forks.
func TestBulkInsertReadsDOnce(t *testing.T) {
	if DebugEnabled {
		t.Skip("the julienne_debug assertions read d themselves")
	}
	const n = 1 << 15
	d := make([]ID, n)
	var reads atomic.Int64
	get := func(i uint32) ID {
		reads.Add(1)
		return d[i]
	}
	// counted runs f and returns the reads of d it made and whether it
	// opened a forked region.
	counted := func(f func()) (int64, bool) {
		reads.Store(0)
		before := parallel.ForkStats()
		f()
		return reads.Load(), parallel.ForkStats().Sub(before).Forked > 0
	}
	defer parallel.SetProcs(parallel.SetProcs(1))
	for _, procs := range []int{1, 2} {
		parallel.SetProcs(procs)
		for _, order := range []Order{Increasing, Decreasing} {
			// step moves a bucket id by k in traversal order.
			step := func(id ID, k int) ID {
				if order == Increasing {
					return id + ID(k)
				}
				return id - ID(k)
			}
			// Identifier 0 opens the range at bucket 1000; every other
			// starts 200 to 206 buckets on, in overflow.
			for i := range d {
				d[i] = step(1000, 200+i%7)
			}
			d[0] = 1000
			var b *Par
			reads, forked := counted(func() { b = New(n, get, order, Options{}) })
			if reads != n || forked != (procs > 1) {
				t.Errorf("P=%d order %d: New read d %d times (forked %v), want %d (forked %v)",
					procs, order, reads, forked, n, procs > 1)
			}
			if id, ids := b.NextBucket(); id != 1000 || len(ids) != 1 {
				t.Fatalf("P=%d order %d: first bucket %d of %d, want 1000 of 1", procs, order, id, len(ids))
			}
			// 100 identifiers move into the open range, which leaves
			// their overflow copies stale; then the range runs dry.
			d[0] = Nil
			next := step(1000, 1)
			for v := 1; v <= 100; v++ {
				d[v] = next
			}
			b.UpdateBuckets(100, func(j int) (uint32, Dest) { return uint32(j + 1), b.GetBucket(Nil, next) })
			if id, ids := b.NextBucket(); id != next || len(ids) != 100 {
				t.Fatalf("P=%d order %d: second bucket %d of %d, want %d of 100", procs, order, id, len(ids), next)
			}
			for v := 1; v <= 100; v++ {
				d[v] = Nil
			}
			_, _, over := b.CurrentRange()
			var id ID
			var ids []uint32
			reads, forked = counted(func() { id, ids = b.NextBucket() })
			if id != step(1000, 200) || reads != int64(over+len(ids)) || forked != (procs > 1) {
				t.Errorf("P=%d order %d: range advance over %d copies to bucket %d of %d read d %d times (forked %v), want bucket %d and %d reads (forked %v)",
					procs, order, over, id, len(ids), reads, forked, step(1000, 200), over+len(ids), procs > 1)
			}
			// A fill from a seed of the even identifiers, the odd ones
			// starting at Nil.
			var seed []uint32
			for i := range d {
				d[i] = Nil
				if i%2 == 0 {
					d[i] = step(1000, i%300)
					seed = append(seed, uint32(i))
				}
			}
			reads, forked = counted(func() { Loop{}.With(n, seed, get, order, Options{}, func(*Par) {}) })
			if reads != int64(len(seed)) || forked != (procs > 1) {
				t.Errorf("P=%d order %d: a fill from %d seeds read d %d times (forked %v), want %d (forked %v)",
					procs, order, len(seed), reads, forked, len(seed), procs > 1)
			}
		}
	}
}

// TestDrainAfterPanickedInsert: a d that panics in the middle of a
// range advance leaves the bulk insert's raw array and the flattened
// overflow bucket behind; drain hands both back to the free list and
// keeps no reference to either.
func TestDrainAfterPanickedInsert(t *testing.T) {
	if DebugEnabled {
		t.Skip("the julienne_debug assertions read d themselves")
	}
	const n = 100
	d := make([]ID, n)
	for i := 1; i < n; i++ {
		d[i] = 500 // beyond the open range: overflow
	}
	armed := false
	get := func(i uint32) ID {
		if armed && i == n/2 {
			panic("d")
		}
		return d[i]
	}
	b := New(n, get, Increasing, Options{})
	if id, _ := b.NextBucket(); id != 0 {
		t.Fatalf("first bucket %d, want 0", id)
	}
	armed = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the range advance did not read d")
			}
		}()
		b.NextBucket()
	}()
	raw, over := b.bulk.raw, b.bulk.ids
	if raw == nil || over == nil {
		t.Fatal("the panic left no bulk insert behind")
	}
	b.drain()
	if b.bulk.raw != nil || b.bulk.ids != nil {
		t.Error("drain kept the bulk insert's arrays")
	}
	a, c := b.chunkAlloc(n-1), b.chunkAlloc(n-1)
	if !(&a[0] == &raw[0] && &c[0] == &over[0] || &a[0] == &over[0] && &c[0] == &raw[0]) {
		t.Error("drain did not hand the raw array and the overflow back to the free list")
	}
}

// --- parallel update stress -----------------------------------------------

func TestLargeBulkUpdate(t *testing.T) {
	// Exceed several update blocks (M = 2048) in a single call.
	n := 100000
	d := make([]ID, n)
	for i := range d {
		d[i] = ID(i % 513)
	}
	get := func(i uint32) ID { return d[i] }
	for _, opt := range []Options{{}, {OpenBuckets: 1024}} {
		par := New(n, get, Increasing, opt)
		got := drainAll(t, par)
		if len(got) != n {
			t.Fatalf("opt=%+v extracted %d want %d", opt, len(got), n)
		}
	}
}

func TestChunkAllocRecycles(t *testing.T) {
	b := &Par{}
	s := b.chunkAlloc(8)
	if len(s) != 8 {
		t.Fatalf("len=%d", len(s))
	}
	// A spent chunk is recycled: the next request it can satisfy must be
	// served from the free list, not the allocator.
	b.freePut(s)
	s2 := b.chunkAlloc(5)
	if len(s2) != 5 || cap(s2) != 8 || &s2[0] != &s[0] {
		t.Fatalf("chunk not recycled: len=%d cap=%d", len(s2), cap(s2))
	}
	// Size classes: a request is served from the class of its own
	// power of two, never from a larger class's array.
	big := b.chunkAlloc(64)
	small := b.chunkAlloc(16)
	b.freePut(big)
	b.freePut(small)
	got := b.chunkAlloc(10)
	if &got[0] != &small[0] {
		t.Fatal("chunkAlloc(10) should take the 16-cap array of its class, not the 64-cap one")
	}
}

func TestHugeBucketIDsNearCeiling(t *testing.T) {
	// Bucket ids adjacent to the Nil sentinel must work: setRange's
	// saturating arithmetic keeps rangeHi < Nil.
	d := []ID{Nil - 2, Nil - 1, 5}
	get := func(i uint32) ID { return d[i] }
	par := New(3, get, Increasing, Options{OpenBuckets: 8})
	got := drainAll(t, par)
	if got[2] != 5 || got[0] != Nil-2 || got[1] != Nil-1 {
		t.Fatalf("got %v", got)
	}
}

func TestDecreasingNearZero(t *testing.T) {
	d := []ID{0, 1, 2}
	get := func(i uint32) ID { return d[i] }
	par := New(3, get, Decreasing, Options{OpenBuckets: 8})
	seen := 0
	last := ID(1 << 30)
	for {
		b, ids := par.NextBucket()
		if b == Nil {
			break
		}
		if b > last {
			t.Fatalf("order violation")
		}
		last = b
		seen += len(ids)
	}
	if seen != 3 {
		t.Fatalf("extracted %d", seen)
	}
}

func TestUpdateAfterDoneIsNoop(t *testing.T) {
	d := []ID{0}
	get := func(i uint32) ID { return d[i] }
	par := New(1, get, Increasing, Options{})
	drainAll(t, par)
	// Structure exhausted: further updates must be ignored safely.
	par.UpdateBuckets(1, func(int) (uint32, Dest) { return 0, Dest(0) })
	if b, _ := par.NextBucket(); b != Nil {
		t.Fatal("update after done resurrected the structure")
	}
	if par.GetBucket(0, 3) != None {
		t.Fatal("GetBucket after done should be None")
	}
}

func TestSeqStatsAndThroughput(t *testing.T) {
	d := []ID{0, 0}
	seq := NewSeq(2, func(i uint32) ID { return d[i] }, Increasing)
	seq.NextBucket()
	st := seq.Stats()
	if st.Extracted != 2 || st.Throughput() != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestUpdateBucketsForksOnBatchNotSlots: a batch below the fork cut-off
// — one block (M = 2048) or several — is a plain count and scatter on
// the caller that opens no parallel region at all, whatever the slot
// count: neither Forked nor Inline moves. A batch past the cut-off
// goes through the helper pool.
func TestUpdateBucketsForksOnBatchNotSlots(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(2))
	n := 1 << 16
	d := make([]ID, n)
	for i := range d {
		d[i] = ID(64 + i%64)
	}
	for _, opt := range []Options{{}, {OpenBuckets: 4096}} {
		b := New(n, func(i uint32) ID { return d[i] }, Increasing, opt)
		move := func(k int) parallel.ForkCounts {
			dests := make([]Dest, k)
			for j := range dests {
				prev := d[j]
				d[j] = prev - 1
				dests[j] = b.GetBucket(prev, d[j])
			}
			before := parallel.ForkStats()
			b.UpdateBuckets(k, func(j int) (uint32, Dest) { return uint32(j), dests[j] })
			return parallel.ForkStats().Sub(before)
		}
		for _, k := range []int{2, updateBlock, 3*updateBlock + 1} {
			if got := move(k); got.Forked != 0 || got.Inline != 0 {
				t.Errorf("opt=%+v: a batch of %d opened regions (%+v), want none", opt, k, got)
			}
		}
		if got := move(16 * updateBlock); got.Forked == 0 {
			t.Errorf("opt=%+v: a batch of %d ran entirely inline (%+v)", opt, 16*updateBlock, got)
		}
	}
}

// TestCompactionIsOneRegionPerSlot: NextBucket compacts a slot in one
// pass over all of its chunks. A slot below the fork cut-off opens no
// parallel region; one above it opens exactly one, however many chunks
// it holds, and its blocks, which straddle chunk boundaries, keep the
// live identifiers in storage order while dropping the stale copies.
func TestCompactionIsOneRegionPerSlot(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(2))
	batches := []int{3000, 5000, 1, 7000, 2049, 6000, 4000} // one chunk each
	n := 1
	for _, k := range batches {
		n += k
	}
	n += 3 * 10 // three small chunks for bucket 2
	d := make([]ID, n)
	for i := range d {
		d[i] = Nil
	}
	d[0] = 0
	b := New(n, func(i uint32) ID { return d[i] }, Increasing, Options{})
	if id, _ := b.NextBucket(); id != 0 {
		t.Fatalf("first bucket %d, want 0", id)
	}
	next := uint32(1)
	insert := func(k int, bkt ID) {
		lo := next
		next += uint32(k)
		for v := lo; v < next; v++ {
			d[v] = bkt
		}
		b.UpdateBuckets(k, func(j int) (uint32, Dest) { return lo + uint32(j), b.GetBucket(Nil, bkt) })
	}
	for _, k := range batches {
		insert(k, 1)
	}
	for range 3 {
		insert(10, 2)
	}
	// Every third identifier of bucket 1 moves on: its copy there is stale.
	var want []uint32
	for v := uint32(1); v < next-30; v++ {
		if v%3 == 0 {
			d[v] = 5
		} else {
			want = append(want, v)
		}
	}
	before := parallel.ForkStats()
	id, got := b.NextBucket()
	if forks := parallel.ForkStats().Sub(before); id != 1 || forks.Forked+forks.Inline != 1 {
		t.Fatalf("bucket %d of %d identifiers in %d chunks opened %+v regions, want bucket 1 and one region",
			id, len(want), len(batches), forks)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("compacted bucket 1 has %d identifiers, want the %d live ones in storage order", len(got), len(want))
	}
	before = parallel.ForkStats()
	id, got = b.NextBucket()
	if forks := parallel.ForkStats().Sub(before); id != 2 || len(got) != 30 || forks != (parallel.ForkCounts{}) {
		t.Fatalf("bucket %d of %d identifiers opened %+v regions, want bucket 2, 30 identifiers and none", id, len(got), forks)
	}
}
