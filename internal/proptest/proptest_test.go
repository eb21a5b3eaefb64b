package proptest

import (
	"fmt"
	"testing"

	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/compress"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/oracle"
	"julienne/internal/rng"
)

// bucketOptions derives a bucket configuration from the case so the
// sweep covers the default open range and tiny ranges that force heavy
// overflow traffic.
func bucketOptions(c Case) bucket.Options {
	opt := bucket.Options{}
	switch c.Rand(0, 3) {
	case 1:
		opt.OpenBuckets = 2
	case 2:
		opt.OpenBuckets = 7
	}
	return opt
}

// reweight picks a weight family for SSSP cases: small uniform weights
// (dense ties), weights including zero, the paper's wBFS [1, log n)
// weighting, and the paper's ∆-stepping [1, 10^5) weighting.
func reweight(c Case, g *graph.CSR) *graph.CSR {
	switch c.Rand(2, 4) {
	case 0:
		return gen.UniformWeights(g, 1, 4, c.Seed)
	case 1:
		return gen.UniformWeights(g, 0, 6, c.Seed)
	case 2:
		return gen.LogWeights(g, c.Seed)
	default:
		return gen.HeavyWeights(g, c.Seed)
	}
}

func TestKCoreMatchesOracle(t *testing.T) {
	Check(t, gen.SymmetricFamilies(), func(c Case, g *graph.CSR) error {
		want := oracle.Coreness(g)
		h := c.Wrap(g)
		res := kcore.Coreness(h, kcore.Options{Buckets: bucketOptions(c)})
		if err := oracle.Diff("kcore.Coreness", res.Coreness, want); err != nil {
			return err
		}
		if err := oracle.Diff("kcore.CorenessLigra", kcore.CorenessLigra(h).Coreness, want); err != nil {
			return err
		}
		return oracle.Diff("kcore.CorenessBZ", kcore.CorenessBZ(h), want)
	})
}

func TestSSSPMatchesOracle(t *testing.T) {
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
		opt := sssp.Options{Buckets: bucketOptions(c)}

		if err := oracle.Diff("sssp.DeltaStepping", sssp.DeltaStepping(h, src, delta, opt).Dist, want); err != nil {
			return err
		}
		if err := oracle.Diff("sssp.WBFS", sssp.WBFS(h, src, opt).Dist, want); err != nil {
			return err
		}
		if err := oracle.Diff("sssp.DeltaSteppingBins", sssp.DeltaSteppingBins(h, src, delta).Dist, want); err != nil {
			return err
		}
		if err := oracle.Diff("sssp.BellmanFord", sssp.BellmanFord(h, src).Dist, want); err != nil {
			return err
		}
		if err := oracle.Diff("sssp.DijkstraHeap", sssp.DijkstraHeap(h, src).Dist, want); err != nil {
			return err
		}
		return nil
	})
}

// TestSetCoverWithinGreedyBound sweeps random bipartite instances
// rather than the graph families: set cover has its own generator and
// its own notion of correctness (validity plus the (1+ε)·H_d bound
// against the sequential greedy oracle — approximation algorithms do
// not match the oracle set-for-set).
func TestSetCoverWithinGreedyBound(t *testing.T) {
	cfg := DefaultConfig()
	for s := 0; s < cfg.Seeds; s++ {
		seed := rng.At(uint64(0x5e7c07e4), uint64(s))
		sets := 1 + int(rng.UintNAt(seed, 1, 40))
		elements := 1 + int(rng.UintNAt(seed, 2, uint64(cfg.MaxN)))
		avg := 1 + int(rng.UintNAt(seed, 3, 4))
		inst := gen.SetCover(sets, elements, avg, seed)
		tag := fmt.Sprintf("seed=%d sets=%d elements=%d avg=%d", seed, sets, elements, avg)

		for _, eps := range []float64{0.01, 0.25} {
			opt := setcover.Options{Epsilon: eps, Buckets: bucket.Options{OpenBuckets: int(rng.UintNAt(seed, 4, 8))}}
			res := setcover.Approx(inst.Graph, inst.Sets, opt)
			if err := oracle.VerifyCover(inst.Graph, inst.Sets, res.InCover, eps); err != nil {
				t.Fatalf("Approx %s eps=%g: %v", tag, eps, err)
			}
			pbbs := setcover.ApproxPBBS(inst.Graph, inst.Sets, opt)
			if err := oracle.VerifyCover(inst.Graph, inst.Sets, pbbs.InCover, eps); err != nil {
				t.Fatalf("ApproxPBBS %s eps=%g: %v", tag, eps, err)
			}
			comp := setcover.ApproxOn(compress.FromCSR(inst.Graph), inst.Sets, opt)
			if err := oracle.VerifyCover(inst.Graph, inst.Sets, comp.InCover, eps); err != nil {
				t.Fatalf("ApproxOn(compressed) %s eps=%g: %v", tag, eps, err)
			}
		}
		greedy := setcover.Greedy(inst.Graph, inst.Sets)
		if err := oracle.VerifyCover(inst.Graph, inst.Sets, greedy.InCover, 0); err != nil {
			t.Fatalf("Greedy %s: %v", tag, err)
		}
	}
}
