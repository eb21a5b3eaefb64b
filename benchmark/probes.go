package main

import (
	"math"
	"sync/atomic"
	"time"

	"julienne"
	"julienne/internal/parallel"
)

// probeReps is how often each probe runs; the fastest run is reported.
const probeReps = 7

// fastest runs prepare (untimed) then f (timed) probeReps times under
// one span and returns the seconds of the fastest f.
func fastest(tr *julienne.Recorder, name string, prepare, f func()) float64 {
	best := math.Inf(1)
	span(tr, name, "probes", func() {
		for i := 0; i < probeReps; i++ {
			if prepare != nil {
				prepare()
			}
			t0 := time.Now()
			f()
			best = min(best, time.Since(t0).Seconds())
		}
	})
	return best
}

// probes measures the layers beneath the kernels directly, each on a
// fixed amount of work at P=nproc: the bucket structure on synthetic
// identifiers (Figure 1's axis), EdgeMap on the workload's own graph,
// and the fork-join primitives.
func probes(g *julienne.CSR, smoke bool, tr *julienne.Recorder) []metric {
	ids, elems := 1<<18, 1<<22
	if smoke {
		ids, elems = 1<<12, 1<<14
	}
	return append(append(bucketProbes(ids, tr), ligraProbes(g, tr)...), parallelProbes(elems, tr)...)
}

func bucketProbes(n int, tr *julienne.Recorder) []metric {
	// One UpdateBuckets call moving every fourth identifier to a lower
	// bucket, over 512 buckets.
	const updBuckets, drainBuckets = 512, 1024
	d := make([]julienne.BucketID, n)
	k := n / 4
	moved := make([]uint32, k)
	dests := make([]julienne.BucketDest, k)
	var b julienne.Buckets
	get := func(i uint32) julienne.BucketID { return d[i] }
	update := fastest(tr, "probe.bucket_update", func() {
		for i := range d {
			d[i] = julienne.BucketID(updBuckets/2 + (i*7919)%(updBuckets/2))
		}
		b = julienne.NewBuckets(n, get, julienne.IncreasingBuckets, julienne.BucketOptions{})
		for j := range moved {
			id := uint32(4 * j)
			prev := d[id]
			d[id] = prev / 2
			moved[j], dests[j] = id, b.GetBucket(prev, d[id])
		}
	}, func() {
		b.UpdateBuckets(k, func(j int) (uint32, julienne.BucketDest) { return moved[j], dests[j] })
	})

	// Construct the structure over 1024 buckets and drain it.
	drain := fastest(tr, "probe.bucket_drain", func() {
		for i := range d {
			d[i] = julienne.BucketID((i * 7919) % drainBuckets)
		}
	}, func() {
		b := julienne.NewBuckets(n, get, julienne.IncreasingBuckets, julienne.BucketOptions{})
		for id, _ := b.NextBucket(); id != julienne.NilBucket; id, _ = b.NextBucket() {
		}
	})
	return []metric{
		{"bucket.probe_update_mids_s", float64(k) / update / 1e6, "M/s"},
		{"bucket.probe_drain_mids_s", float64(n) / drain / 1e6, "M/s"},
	}
}

func ligraProbes(g *julienne.CSR, tr *julienne.Recorder) []metric {
	n := g.NumVertices()
	var frontier []julienne.Vertex
	var frontierEdges int
	for v := 0; v < n; v += 64 {
		frontier = append(frontier, julienne.Vertex(v))
		frontierEdges += g.OutDegree(julienne.Vertex(v))
	}
	visited := make([]uint32, n)
	all := func(julienne.Vertex) bool { return true }
	// Sparse: push from every 64th vertex, claiming each target once.
	sparse := fastest(tr, "probe.ligra_sparse", func() { clear(visited) }, func() {
		julienne.EdgeMap(g, julienne.SparseSubset(n, frontier), all,
			func(_, dst julienne.Vertex, _ julienne.Weight) bool {
				return atomic.CompareAndSwapUint32(&visited[dst], 0, 1)
			}, julienne.EdgeMapOptions{NoDense: true})
	})
	// Dense: every vertex in the frontier, so EdgeMap pulls over all
	// edges; nothing is claimed, so no scan stops early.
	dense := fastest(tr, "probe.ligra_dense", nil, func() {
		julienne.EdgeMap(g, julienne.AllVertices(n), all,
			func(_, _ julienne.Vertex, _ julienne.Weight) bool { return false },
			julienne.EdgeMapOptions{})
	})
	return []metric{
		{"ligra.probe_sparse_medges_s", float64(frontierEdges) / sparse / 1e6, "M/s"},
		{"ligra.probe_dense_medges_s", float64(g.NumEdges()) / dense / 1e6, "M/s"},
	}
}

func parallelProbes(n int, tr *julienne.Recorder) []metric {
	// The cost of one fork-join with nothing to do: 1024 indices in
	// blocks of 64, so the loop forks even at small P. This is the floor
	// under every bucket round.
	const forks = 500
	fork := fastest(tr, "probe.parallel_fork", nil, func() {
		for i := 0; i < forks; i++ {
			parallel.For(1024, 64, func(int) {})
		}
	})
	src := make([]int64, n)
	dst := make([]int64, n)
	forS := fastest(tr, "probe.parallel_for", nil, func() {
		parallel.For(n, 0, func(i int) { src[i] = int64(i & 7) })
	})
	scan := fastest(tr, "probe.parallel_scan", nil, func() { parallel.Scan(dst, src) })
	buf := make([]int64, 0, n)
	filter := fastest(tr, "probe.parallel_filter", nil, func() {
		buf = parallel.FilterInto(buf, src, func(v int64) bool { return v&1 == 0 })
	})
	return []metric{
		{"parallel.probe_fork_us", fork / forks * 1e6, "us"},
		{"parallel.probe_for_melems_s", float64(n) / forS / 1e6, "M/s"},
		{"parallel.probe_scan_melems_s", float64(n) / scan / 1e6, "M/s"},
		{"parallel.probe_filter_melems_s", float64(n) / filter / 1e6, "M/s"},
	}
}
