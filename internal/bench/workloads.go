package bench

import (
	"fmt"
	"sync"

	"julienne/internal/algo/densest"
	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/algo/triangles"
	"julienne/internal/algo/truss"
	"julienne/internal/bucket"
	"julienne/internal/compress"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/rng"
)

// seed makes every workload reproducible (SPAA '17); delta is the
// paper's tuned ∆ for weights in [1, 10^5).
const (
	seed  = 2017
	delta = 32768
)

// Workload is one row of one paper artifact: an application, an
// implementation and an input. Its key is what reports, -print and
// -check identify it by.
type Workload struct {
	// Artifact is the table or figure the row belongs to first: table3,
	// fig1, ablation, extension or bucket. Tables 1 and 2 and Figures
	// 2–5 are views of the table3 rows (print.go).
	Artifact, App, Impl, Graph string
	// Run executes the workload once. A nil recorder is the timed path;
	// inputs are built on first use, so the first call also pays for
	// them.
	Run func(rec *obs.Recorder) Result
}

// Key is the workload's identity: artifact/app/impl/graph.
func (w Workload) Key() string {
	return w.Artifact + "/" + w.App + "/" + w.Impl + "/" + w.Graph
}

// Result is what one run reports besides its wall time.
type Result struct {
	// N and M are the input's size.
	N int
	M int64
	// Rounds is the number of bucket/peeling/frontier rounds, 0 for a
	// sequential comparator that has none.
	Rounds int64
	// Answer computes the counters that identify the run's output
	// (vertices scanned, cover size, distance checksum, ...). It is a
	// closure so that the timed path never pays for a checksum.
	Answer func() map[string]int64
}

// input is one graph of the inventory: Table 2's stand-ins. The graph
// and its two weighted forms are built on first use and shared by
// every workload that names them.
type input struct {
	name, role      string
	g, wlog, wheavy func() *graph.CSR
}

// scaling names the three inputs of Figures 2–5 (the paper uses
// Twitter-Sym, Friendster and a road-like graph).
var scaling = []string{"rmat", "powerlaw", "road"}

// inputs is the one graph inventory. smoke shrinks it to CI size.
func inputs(smoke bool) (ins []input, cover func() gen.SetCoverInstance) {
	n, m, side := 1<<13, 1<<17, 128
	if smoke {
		n, m, side = 1<<10, 1<<13, 32
	}
	mk := func(name, role string, build func() *graph.CSR) input {
		g := sync.OnceValue(build)
		return input{name, role, g,
			sync.OnceValue(func() *graph.CSR { return gen.LogWeights(g(), seed+200) }),
			sync.OnceValue(func() *graph.CSR { return gen.HeavyWeights(g(), seed+300) })}
	}
	ins = []input{
		mk("rmat-dense", "com-Orkut (dense social)", func() *graph.CSR { return gen.RMAT(n/2, m, true, seed) }),
		mk("rmat", "Twitter-Sym (skewed social)", func() *graph.CSR { return gen.RMAT(n, m, true, seed+1) }),
		mk("powerlaw", "Friendster (power law)", func() *graph.CSR { return gen.ChungLu(n, m, 2.3, true, seed+2) }),
		mk("random", "Hyperlink-Host (uniform)", func() *graph.CSR { return gen.ErdosRenyi(n, m/2, true, seed+3) }),
		mk("road", "road-like (high diameter)", func() *graph.CSR { return gen.Grid2D(side, side) }),
	}
	cover = sync.OnceValue(func() gen.SetCoverInstance { return gen.SetCover(n/2, 4*n, 4, seed+9) })
	return ins, cover
}

func kcoreResult(res kcore.Result) Result {
	return Result{Rounds: res.Rounds, Answer: func() map[string]int64 {
		a := map[string]int64{"kmax": int64(kcore.MaxCoreness(res.Coreness))}
		if res.VerticesScanned > 0 { // the sequential comparator counts none
			a["vertices_scanned"] = res.VerticesScanned
		}
		return a
	}}
}

func ssspResult(res sssp.Result) Result {
	return Result{Rounds: res.Rounds, Answer: func() map[string]int64 {
		var reached, sum int64
		for _, d := range res.Dist {
			if d != sssp.Unreachable {
				reached++
				sum += d
			}
		}
		return map[string]int64{"edges_traversed": res.EdgesTraversed, "relaxations": res.Relaxations,
			"reached": reached, "dist_sum": sum}
	}}
}

// coverResult reports a cover; cost is 0 for the unweighted problem.
func coverResult(res setcover.Result, cost float64) Result {
	return Result{Rounds: res.Rounds, Answer: func() map[string]int64 {
		a := map[string]int64{"sets_inspected": res.SetsInspected, "cover_size": int64(res.CoverSize)}
		if cost > 0 {
			a["cost_milli"] = int64(cost * 1000)
		}
		return a
	}}
}

func densestResult(res densest.Result) Result {
	return Result{Rounds: res.Rounds, Answer: func() map[string]int64 {
		return map[string]int64{"density_milli": int64(res.Density * 1000), "size": int64(len(res.Vertices))}
	}}
}

// Workloads is the registry: every measured configuration in the
// repository, in the order reports and -print list them. Building it
// is free — inputs are constructed by the first Run that needs them —
// and two calls give the same keys in the same order.
func Workloads(smoke bool) []Workload {
	ins, cover := inputs(smoke)
	byName := map[string]input{}
	var ws []Workload
	add := func(artifact, app, impl, graph string, run func(rec *obs.Recorder) Result) {
		ws = append(ws, Workload{artifact, app, impl, graph, run})
	}
	// on registers a workload over one form (plain, log- or
	// heavy-weighted) of an inventory graph and sizes its result.
	on := func(artifact, app, impl string, in input, g func() *graph.CSR, run func(g *graph.CSR, rec *obs.Recorder) Result) {
		add(artifact, app, impl, in.name, func(rec *obs.Recorder) Result {
			csr := g()
			r := run(csr, rec)
			r.N, r.M = csr.NumVertices(), csr.NumEdges()
			return r
		})
	}
	onCover := func(artifact, app, impl string, run func(inst gen.SetCoverInstance, rec *obs.Recorder) Result) {
		add(artifact, app, impl, "setcover", func(rec *obs.Recorder) Result {
			inst := cover()
			r := run(inst, rec)
			r.N, r.M = inst.Graph.NumVertices(), inst.Graph.NumEdges()
			return r
		})
	}

	for _, in := range ins {
		byName[in.name] = in
		on("table3", "kcore", "julienne", in, in.g, func(g *graph.CSR, rec *obs.Recorder) Result {
			return kcoreResult(kcore.Coreness(g, kcore.Options{Recorder: rec}))
		})
		on("table3", "kcore", "ligra", in, in.g, func(g *graph.CSR, _ *obs.Recorder) Result {
			return kcoreResult(kcore.CorenessLigra(g))
		})
		on("table3", "kcore", "bz-seq", in, in.g, func(g *graph.CSR, _ *obs.Recorder) Result {
			return kcoreResult(kcore.Result{Coreness: kcore.CorenessBZ(g)})
		})
		// wBFS rows use weights in [1, log n) and ∆ = 1; ∆-stepping rows
		// use weights in [1, 10^5) and the tuned ∆.
		for _, a := range []struct {
			app string
			g   func() *graph.CSR
			d   int64
		}{{"wbfs", in.wlog, 1}, {"delta", in.wheavy, delta}} {
			on("table3", a.app, "julienne", in, a.g, func(g *graph.CSR, rec *obs.Recorder) Result {
				return ssspResult(sssp.DeltaStepping(g, 0, a.d, sssp.Options{Recorder: rec}))
			})
			on("table3", a.app, "bellman-ford", in, a.g, func(g *graph.CSR, _ *obs.Recorder) Result {
				return ssspResult(sssp.BellmanFord(g, 0))
			})
			on("table3", a.app, "gap-bins", in, a.g, func(g *graph.CSR, _ *obs.Recorder) Result {
				return ssspResult(sssp.DeltaSteppingBins(g, 0, a.d))
			})
			on("table3", a.app, "dijkstra-seq", in, a.g, func(g *graph.CSR, _ *obs.Recorder) Result {
				return ssspResult(sssp.DijkstraHeap(g, 0))
			})
		}
	}
	onCover("table3", "setcover", "julienne", func(inst gen.SetCoverInstance, rec *obs.Recorder) Result {
		return coverResult(setcover.Approx(inst.Graph, inst.Sets, setcover.Options{Recorder: rec}), 0)
	})
	onCover("table3", "setcover", "pbbs", func(inst gen.SetCoverInstance, _ *obs.Recorder) Result {
		return coverResult(setcover.ApproxPBBS(inst.Graph, inst.Sets, setcover.Options{}), 0)
	})
	onCover("table3", "setcover", "greedy-seq", func(inst gen.SetCoverInstance, _ *obs.Recorder) Result {
		return coverResult(setcover.Greedy(inst.Graph, inst.Sets), 0)
	})

	// Figure 1: the §3.4 protocol over b initial buckets and n
	// identifiers. The application points of the figure are the
	// table3 julienne rows on rmat, read for their bucket counters.
	ids := []int{1 << 10, 1 << 13, 1 << 16, 1 << 19}
	if smoke {
		ids = ids[:3]
	}
	for _, b := range []int{128, 256, 512, 1024} {
		for _, n := range ids {
			add("fig1", "sim", fmt.Sprintf("b%d", b), fmt.Sprintf("n%d", n), func(rec *obs.Recorder) Result {
				return Result{N: n, M: int64(b), Rounds: simulate(n, b, seed, rec).BucketsReturned}
			})
		}
	}

	// The bucket structure's two hot paths on their own: one
	// UpdateBuckets call of k updates against a standing structure of n
	// identifiers, and constructing then draining one.
	bn, bk := 1<<18, 1<<16
	if smoke {
		bn, bk = 1<<15, 1<<13
	}
	standing := sync.OnceValues(func() (*bucket.Par, func(int) (uint32, bucket.Dest)) { return updateStream(bn, bk, nil) })
	add("bucket", "update-histogram", "par", fmt.Sprintf("n%d", bn), func(rec *obs.Recorder) Result {
		par, f := standing()
		if rec != nil {
			par, f = updateStream(bn, bk, rec)
		}
		par.UpdateBuckets(bk, f)
		return Result{N: bn, M: int64(bk), Rounds: 1}
	})
	drainIDs := sync.OnceValue(func() []bucket.ID {
		d := make([]bucket.ID, bn)
		for i := range d {
			d[i] = bucket.ID(rng.UintNAt(3, uint64(i), 1024))
		}
		return d
	})
	add("bucket", "new-and-drain", "par", fmt.Sprintf("n%d", bn), func(rec *obs.Recorder) Result {
		d := drainIDs()
		par := bucket.New(bn, func(i uint32) bucket.ID { return d[i] }, bucket.Increasing, bucket.Options{Recorder: rec})
		for id, _ := par.NextBucket(); id != bucket.Nil; id, _ = par.NextBucket() {
		}
		return Result{N: bn, Rounds: par.Stats().BucketsReturned}
	})

	// Ablations. The nB = 128, CSR and unfused rows are the table3
	// julienne rows on the same inputs, not second runs.
	rmat, road := byName["rmat"], byName["road"]
	for _, nb := range []int{16, 1024, 1 << 20} {
		on("ablation", "kcore", fmt.Sprintf("nB%d", nb), rmat, rmat.g, func(g *graph.CSR, rec *obs.Recorder) Result {
			return kcoreResult(kcore.Coreness(g, kcore.Options{Buckets: bucket.Options{OpenBuckets: nb}, Recorder: rec}))
		})
	}
	for _, in := range []input{rmat, road} {
		packed := sync.OnceValue(func() *compress.Graph { return compress.FromCSR(in.g()) })
		on("ablation", "kcore", "compressed", in, in.g, func(g *graph.CSR, rec *obs.Recorder) Result {
			r := kcoreResult(kcore.Coreness(packed(), kcore.Options{Recorder: rec}))
			peel := r.Answer
			r.Answer = func() map[string]int64 {
				a := peel()
				a["csr_bytes"], a["compressed_bytes"] = 4*g.NumEdges(), packed().SizeBytes()
				return a
			}
			return r
		})
	}
	fused := bucket.MaximalFusion()
	on("ablation", "wbfs", "fused", road, road.wlog, func(g *graph.CSR, rec *obs.Recorder) Result {
		return ssspResult(sssp.WBFS(g, 0, sssp.Options{Recorder: rec, Fusion: fused}))
	})
	on("ablation", "delta", "fused", road, road.wheavy, func(g *graph.CSR, rec *obs.Recorder) Result {
		return ssspResult(sssp.DeltaStepping(g, 0, delta, sssp.Options{Recorder: rec, Fusion: fused}))
	})

	// Extensions beyond the paper's four applications.
	for _, in := range []input{rmat, byName["powerlaw"]} {
		on("extension", "densest", "charikar", in, in.g, func(g *graph.CSR, rec *obs.Recorder) Result {
			return densestResult(densest.CharikarWithOptions(g, densest.Options{Recorder: rec}))
		})
		on("extension", "densest", "peel-batch", in, in.g, func(g *graph.CSR, _ *obs.Recorder) Result {
			return densestResult(densest.PeelBatch(g, 0.1))
		})
	}
	cores := sync.OnceValue(func() []uint32 { return kcore.Coreness(rmat.g(), kcore.Options{}).Coreness })
	for _, c := range []struct {
		impl string
		k    func(kmax uint32) uint32
	}{
		{"k2", func(uint32) uint32 { return 2 }},
		{"khalf", func(kmax uint32) uint32 { return kmax / 2 }},
		{"kmax", func(kmax uint32) uint32 { return kmax }},
	} {
		on("extension", "extract-core", c.impl, rmat, rmat.g, func(g *graph.CSR, _ *obs.Recorder) Result {
			k := c.k(kcore.MaxCoreness(cores()))
			sub := kcore.ExtractCore(g, cores(), k)
			return Result{Answer: func() map[string]int64 {
				return map[string]int64{"k": int64(k), "core_vertices": int64(len(sub.Vertices)), "num_cores": int64(sub.NumCores)}
			}}
		})
	}
	costs := sync.OnceValue(func() []float64 {
		r := rng.New(seed)
		c := make([]float64, cover().Sets)
		for i := range c {
			c[i] = 0.5 + 5*r.Float64()
		}
		return c
	})
	onCover("extension", "weighted-cover", "julienne", func(inst gen.SetCoverInstance, rec *obs.Recorder) Result {
		res := setcover.ApproxWeighted(inst.Graph, inst.Sets, costs(), setcover.Options{Recorder: rec})
		return coverResult(res.Result, res.Cost)
	})
	onCover("extension", "weighted-cover", "greedy-seq", func(inst gen.SetCoverInstance, _ *obs.Recorder) Result {
		res := setcover.GreedyWeighted(inst.Graph, inst.Sets, costs())
		return coverResult(res.Result, res.Cost)
	})
	dense := byName["rmat-dense"]
	on("extension", "ktruss", "julienne", dense, dense.g, func(g *graph.CSR, _ *obs.Recorder) Result {
		res := truss.Trussness(g)
		return Result{Rounds: res.Rounds, Answer: func() map[string]int64 {
			return map[string]int64{"max_trussness": int64(res.MaxTrussness()), "edges": int64(len(res.Trussness))}
		}}
	})
	on("extension", "triangles", "julienne", rmat, rmat.g, func(g *graph.CSR, _ *obs.Recorder) Result {
		count := triangles.Count(g)
		return Result{Answer: func() map[string]int64 { return map[string]int64{"triangles": count} }}
	})
	return ws
}

// updateStream builds a standing structure of n identifiers and a
// fixed stream of k (identifier, destination) updates against it, so
// the bucket/update-histogram row times UpdateBuckets and nothing else.
func updateStream(n, k int, rec *obs.Recorder) (*bucket.Par, func(j int) (uint32, bucket.Dest)) {
	d := make([]bucket.ID, n)
	for i := range d {
		d[i] = bucket.ID(rng.UintNAt(1, uint64(i), 512))
	}
	par := bucket.New(n, func(i uint32) bucket.ID { return d[i] }, bucket.Increasing, bucket.Options{Recorder: rec})
	ids := make([]uint32, k)
	dests := make([]bucket.Dest, k)
	for j := 0; j < k; j++ {
		v := uint32(rng.UintNAt(2, uint64(j), uint64(n)))
		prev := d[v]
		next := prev / 2
		d[v] = next
		ids[j] = v
		dest := par.GetBucket(prev, next)
		if dest == bucket.None {
			dest = bucket.Dest(0)
		}
		dests[j] = dest
	}
	return par, func(j int) (uint32, bucket.Dest) { return ids[j], dests[j] }
}
