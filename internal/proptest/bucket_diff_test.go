package proptest

import (
	"fmt"
	"sort"
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/rng"
)

// TestBucketParMatchesSeq drives the parallel bucket structure (§3.3)
// and the exact sequential structure (§3.2) in lockstep through a
// random peeling-style script — extract a bucket, retire or advance
// every extracted identifier by a random amount, repeat — and requires
// the extraction sequences to agree exactly: same bucket ids, same
// identifier sets, same Extracted/BucketsReturned totals. The open
// range, overflow bucket, and range advances of Par are pure
// representation choices, so any observable divergence from Seq is a
// bug. Runs with the default open range, a 2-bucket range that forces
// constant overflow traffic, and a 7-bucket range, under both traversal
// orders.
func TestBucketParMatchesSeq(t *testing.T) {
	cfg := DefaultConfig()
	opts := []bucket.Options{
		{},
		{OpenBuckets: 2},
		{OpenBuckets: 7},
	}
	for s := 0; s < cfg.Seeds*2; s++ {
		seed := rng.At(uint64(0xb0c4e7), uint64(s))
		n := 1 + int(rng.UintNAt(seed, 1, uint64(cfg.MaxN)+1))
		for _, order := range []bucket.Order{bucket.Increasing, bucket.Decreasing} {
			for oi, opt := range opts {
				runBucketDiff(t, n, rng.At(seed, uint64(oi)), order, opt)
			}
		}
	}
}

func runBucketDiff(t *testing.T, n int, seed uint64, order bucket.Order, opt bucket.Options) {
	t.Helper()
	r := rng.New(seed)
	dvals := make([]bucket.ID, n)
	for i := range dvals {
		if r.UintN(8) == 0 {
			dvals[i] = bucket.Nil
		} else {
			dvals[i] = bucket.ID(r.UintN(300))
		}
	}
	d := func(i uint32) bucket.ID { return dvals[i] }
	par := bucket.New(n, d, order, opt)
	seq := bucket.NewSeq(n, d, order)

	ctx := func() string {
		return t.Name() + ": " + describeDiff(n, seed, order, opt)
	}
	for rounds := 0; ; rounds++ {
		if rounds > 4*n+16 {
			t.Fatalf("%s: no convergence after %d rounds", ctx(), rounds)
		}
		idP, liveP := par.NextBucket()
		idS, liveS := seq.NextBucket()
		if idP != idS {
			t.Fatalf("%s: round %d: Par returned bucket %d, Seq returned %d", ctx(), rounds, idP, idS)
		}
		if idP == bucket.Nil {
			break
		}
		sortedP := sortedIDs(liveP)
		sortedS := sortedIDs(liveS)
		if len(sortedP) != len(sortedS) {
			t.Fatalf("%s: round %d bucket %d: Par extracted %d ids, Seq %d",
				ctx(), rounds, idP, len(sortedP), len(sortedS))
		}
		for i := range sortedP {
			if sortedP[i] != sortedS[i] {
				t.Fatalf("%s: round %d bucket %d: extraction sets differ at %d: Par %d, Seq %d",
					ctx(), rounds, idP, i, sortedP[i], sortedS[i])
			}
		}

		// Retire or advance every extracted identifier, the way peeling
		// algorithms do: Nil removes it, next == prev drops it from the
		// structure (GetBucket returns None), and otherwise it moves a
		// random distance in traversal direction.
		type update struct {
			id         uint32
			prev, next bucket.ID
		}
		ups := make([]update, 0, len(sortedP))
		for _, id := range sortedP {
			prev := dvals[id]
			next := prev
			switch r.UintN(4) {
			case 0:
				next = bucket.Nil
			case 1:
				// stays put: filtered as a no-op move
			default:
				step := bucket.ID(1 + r.UintN(40))
				if order == bucket.Increasing {
					next = prev + step
				} else if prev > step {
					next = prev - step
				} else {
					next = 0
				}
			}
			ups = append(ups, update{id: id, prev: prev, next: next})
		}
		for _, u := range ups {
			dvals[u.id] = u.next
		}
		destsP := make([]bucket.Dest, len(ups))
		destsS := make([]bucket.Dest, len(ups))
		for i, u := range ups {
			destsP[i] = par.GetBucket(u.prev, u.next)
			destsS[i] = seq.GetBucket(u.prev, u.next)
		}
		par.UpdateBuckets(len(ups), func(j int) (uint32, bucket.Dest) { return ups[j].id, destsP[j] })
		seq.UpdateBuckets(len(ups), func(j int) (uint32, bucket.Dest) { return ups[j].id, destsS[j] })
	}

	sp, ss := par.Stats(), seq.Stats()
	if sp.Extracted != ss.Extracted || sp.BucketsReturned != ss.BucketsReturned {
		t.Fatalf("%s: stats diverged: Par extracted %d over %d buckets, Seq %d over %d",
			ctx(), sp.Extracted, sp.BucketsReturned, ss.Extracted, ss.BucketsReturned)
	}
}

func describeDiff(n int, seed uint64, order bucket.Order, opt bucket.Options) string {
	dir := "inc"
	if order == bucket.Decreasing {
		dir = "dec"
	}
	return fmt.Sprintf("n=%d seed=%d order=%s open=%d", n, seed, dir, opt.OpenBuckets)
}

func sortedIDs(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
