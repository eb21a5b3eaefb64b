package bucket

import (
	"sort"
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
func runDifferential(t *testing.T, n, fanout int, order Order, opt Options, seed uint64) {
	t.Helper()
	d := make([]ID, n)
	initial := make([]ID, n)
	for i := range d {
		d[i] = ID(rng.UintNAt(seed, uint64(i), 1000))
		initial[i] = d[i]
	}
	get := func(i uint32) ID { return d[i] }
	seq := NewSeq(n, get, order)
	par := New(n, get, order, opt)

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
		for i, u := range updates {
			sDests[i] = seq.GetBucket(u.prev, u.next)
			pDests[i] = par.GetBucket(u.prev, u.next)
		}
		seq.UpdateBuckets(len(updates), func(j int) (uint32, Dest) { return updates[j].id, sDests[j] })
		par.UpdateBuckets(len(updates), func(j int) (uint32, Dest) { return updates[j].id, pDests[j] })
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
		runDifferential(t, 2000, 4, Increasing, opt, 11)
	}
}

func TestDifferentialDecreasing(t *testing.T) {
	for _, opt := range []Options{{}, {OpenBuckets: 3}} {
		runDifferential(t, 2000, 4, Decreasing, opt, 13)
	}
}

func TestDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runDifferential(t, 20000, 8, Increasing, Options{OpenBuckets: 128}, 17)
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
	// Best fit: the smallest adequate array wins.
	big := b.chunkAlloc(64)
	small := b.chunkAlloc(16)
	b.freePut(big)
	b.freePut(small)
	got := b.chunkAlloc(10)
	if &got[0] != &small[0] {
		t.Fatal("best-fit freeGet should pick the 16-cap array over the 64-cap one")
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

// TestUpdateBucketsForksOnBatchNotSlots: a batch of one block (M = 2048)
// runs all five §3.3 passes inline, whatever the slot count — the resize
// pass used to fork over the 130 slots for a 2-identifier batch — and a
// batch of many blocks goes through the helper pool.
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
		for _, k := range []int{2, updateBlock} {
			if got := move(k); got.Forked != 0 {
				t.Errorf("opt=%+v: a batch of %d forked %d regions, want 0", opt, k, got.Forked)
			}
		}
		if got := move(16 * updateBlock); got.Forked == 0 {
			t.Errorf("opt=%+v: a batch of %d ran entirely inline (%+v)", opt, 16*updateBlock, got)
		}
	}
}
