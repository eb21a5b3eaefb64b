package proptest

import (
	"fmt"
	"math"
	"testing"

	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/oracle"
	"julienne/internal/rng"
)

// fusionSweep is the knob grid every SSSP fusion property runs under:
// the minimal budget (every bucket alone, so the lazy same-round path
// carries all reinsertions), a small budget with a tight span cap
// (constant rejections and cursor rewinds), a generous budget, and the
// unbounded maximal setting.
var fusionSweep = []bucket.Fusion{
	{MaxFrontier: 1},
	{MaxFrontier: 8, MaxSpan: 2},
	{MaxFrontier: 1 << 10},
	bucket.MaximalFusion(),
}

func fusionTag(f bucket.Fusion) string {
	span := fmt.Sprint(f.MaxSpan)
	if f.MaxSpan < 1 {
		span = "inf"
	}
	frontier := fmt.Sprint(f.MaxFrontier)
	if f.MaxFrontier == math.MaxInt {
		frontier = "inf"
	}
	return fmt.Sprintf("fused{frontier=%s,span=%s}", frontier, span)
}

// TestSSSPFusionMatchesOracle sweeps every generator family and weight
// family through the two fusion-capable entry points at every knob
// setting, cross-checking distances against the Dijkstra oracle and
// requiring fusion to never extract more bucket rounds than the
// unfused run (its entire point is extracting fewer).
func TestSSSPFusionMatchesOracle(t *testing.T) {
	type variant struct {
		name string
		run  func(g graph.Graph, src graph.Vertex, delta int64, opt sssp.Options) sssp.Result
	}
	variants := []variant{
		{"sssp.DeltaStepping", sssp.DeltaStepping},
		{"sssp.WBFS", func(g graph.Graph, src graph.Vertex, _ int64, opt sssp.Options) sssp.Result {
			return sssp.WBFS(g, src, opt)
		}},
	}
	Check(t, gen.Families(), func(c Case, g *graph.CSR) error {
		n := g.NumVertices()
		if n == 0 {
			return nil
		}
		wg := reweight(c, g)
		src := graph.Vertex(c.Rand(3, uint64(n)))
		want := oracle.Dijkstra(wg, src)
		h := c.Wrap(wg)
		delta := []int64{1, 3, 16, 1024}[c.Rand(4, 4)]
		base := sssp.Options{Buckets: bucketOptions(c)}

		for _, v := range variants {
			ref := v.run(h, src, delta, base)
			if err := oracle.Diff(v.name+" unfused", ref.Dist, want); err != nil {
				return err
			}
			for _, fus := range fusionSweep {
				opt := base
				opt.Fusion = fus
				res := v.run(h, src, delta, opt)
				tag := v.name + " " + fusionTag(fus)
				if err := oracle.Diff(tag, res.Dist, want); err != nil {
					return err
				}
				if fusedRounds, refRounds := res.BucketStats.BucketsReturned, ref.BucketStats.BucketsReturned; fusedRounds > refRounds {
					return fmt.Errorf("%s extracted %d bucket rounds, unfused run only %d",
						tag, fusedRounds, refRounds)
				}
			}
		}
		return nil
	})
}

// TestBucketFusedParMatchesSeq is the fused counterpart of
// TestBucketParMatchesSeq: it drives Par and Seq through the full
// fused protocol — NextBucketFused, a wave of random moves, DrainLazy
// until the span settles, repeat — and requires identical fused id
// ranges, identical frontier and drain contents, and identical
// extraction totals at every step. Par runs with OpenBuckets covering
// the whole id universe so its open-range boundary (a Par-only
// representation limit, pinned by unit tests) never ends a run early.
func TestBucketFusedParMatchesSeq(t *testing.T) {
	fusions := []bucket.Fusion{
		{MaxFrontier: 1},
		{MaxFrontier: 4, MaxSpan: 3},
		{MaxFrontier: 1 << 20, MaxSpan: 5},
		bucket.MaximalFusion(),
	}
	cfg := DefaultConfig()
	for s := 0; s < cfg.Seeds*2; s++ {
		seed := rng.At(uint64(0xf05ed), uint64(s))
		n := 1 + int(rng.UintNAt(seed, 1, uint64(cfg.MaxN)+1))
		for _, order := range []bucket.Order{bucket.Increasing, bucket.Decreasing} {
			for fi, fus := range fusions {
				for si := 0; si < 2; si++ {
					runFusedBucketDiff(t, n, rng.At(seed, uint64(8*fi+si)), order, fus)
				}
			}
		}
	}
}

// fusedDiffBuckets bounds the logical id universe of the fused
// differential script; Par runs with OpenBuckets equal to it so the
// whole universe fits one open range.
const fusedDiffBuckets = 96

func runFusedBucketDiff(t *testing.T, n int, seed uint64, order bucket.Order, fus bucket.Fusion) {
	t.Helper()
	r := rng.New(seed)
	dvals := make([]bucket.ID, n)
	for i := range dvals {
		if r.UintN(8) == 0 {
			dvals[i] = bucket.Nil
		} else {
			dvals[i] = bucket.ID(r.UintN(fusedDiffBuckets))
		}
	}
	d := func(i uint32) bucket.ID { return dvals[i] }
	par := bucket.New(n, d, order, bucket.Options{OpenBuckets: fusedDiffBuckets})
	seq := bucket.NewSeq(n, d, order)

	ctx := func() string {
		dir := "inc"
		if order == bucket.Decreasing {
			dir = "dec"
		}
		return fmt.Sprintf("%s: n=%d seed=%d order=%s %s",
			t.Name(), n, seed, dir, fusionTag(fus))
	}
	diffWave := func(what string, rounds int, liveP, liveS []uint32) []uint32 {
		t.Helper()
		sortedP, sortedS := sortedIDs(liveP), sortedIDs(liveS)
		if len(sortedP) != len(sortedS) {
			t.Fatalf("%s: round %d %s: Par returned %d ids, Seq %d",
				ctx(), rounds, what, len(sortedP), len(sortedS))
		}
		for i := range sortedP {
			if sortedP[i] != sortedS[i] {
				t.Fatalf("%s: round %d %s: contents differ at %d: Par %d, Seq %d",
					ctx(), rounds, what, i, sortedP[i], sortedS[i])
			}
		}
		return sortedP
	}

	// moveOn picks an update for one extracted identifier: retire it,
	// reinsert it into its own bucket (wave 0 only, so the lazy loop
	// terminates), or advance it in traversal direction. Advances that
	// land inside the fused span route through the lazy buffer and come
	// back the same round; ids at the traversal-direction end of the
	// universe retire, so every wave makes progress.
	moveOn := func(prev bucket.ID, wave int) bucket.ID {
		switch r.UintN(4) {
		case 0:
			return bucket.Nil
		case 1:
			if wave == 0 {
				return prev
			}
			return bucket.Nil
		default:
			step := bucket.ID(1 + r.UintN(7))
			if order == bucket.Increasing {
				next := prev + step
				if next >= fusedDiffBuckets {
					return bucket.Nil
				}
				return next
			}
			if prev < step {
				return bucket.Nil
			}
			return prev - step
		}
	}

	for rounds := 0; ; rounds++ {
		if rounds > 8*n+64 {
			t.Fatalf("%s: no convergence after %d rounds", ctx(), rounds)
		}
		fP, lP, liveP := par.NextBucketFused(fus.MaxFrontier, fus.MaxSpan)
		fS, lS, liveS := seq.NextBucketFused(fus.MaxFrontier, fus.MaxSpan)
		if fP != fS || lP != lS {
			t.Fatalf("%s: round %d: Par fused [%d, %d], Seq fused [%d, %d]",
				ctx(), rounds, fP, lP, fS, lS)
		}
		if fP == bucket.Nil {
			break
		}
		wave := diffWave("fused frontier", rounds, liveP, liveS)
		for w := 0; len(wave) > 0; w++ {
			if w > fusedDiffBuckets+8 {
				t.Fatalf("%s: round %d: lazy loop did not settle after %d waves", ctx(), rounds, w)
			}
			type update struct {
				id         uint32
				prev, next bucket.ID
			}
			ups := make([]update, 0, len(wave))
			for _, id := range wave {
				prev := dvals[id]
				ups = append(ups, update{id: id, prev: prev, next: moveOn(prev, w)})
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
			wave = diffWave("lazy drain", rounds, par.DrainLazy(), seq.DrainLazy())
		}
	}

	sp, ss := par.Stats(), seq.Stats()
	if sp.Extracted != ss.Extracted || sp.BucketsReturned != ss.BucketsReturned {
		t.Fatalf("%s: stats diverged: Par extracted %d over %d fused rounds, Seq %d over %d",
			ctx(), sp.Extracted, sp.BucketsReturned, ss.Extracted, ss.BucketsReturned)
	}
}
