package ligra

import (
	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// denseThresholdDivisor implements Ligra's direction optimization
// heuristic (Beamer's threshold): switch to the dense/pull traversal
// when |U| + sum of out-degrees over U exceeds m / 20.
const denseThresholdDivisor = 20

// EdgeMapOptions tunes EdgeMap.
type EdgeMapOptions struct {
	// NoDense forces the sparse (push) traversal. Algorithms whose F
	// captures per-target state with a CAS race (∆-stepping) are
	// push-only.
	NoDense bool
	// NoOutput skips building the output subset; use when EdgeMap is
	// called purely for its side effects (set cover's VisitElms).
	NoOutput bool
	// Recorder, when non-nil, receives the direction decision
	// (obs.CtrEdgeMapSparse/Dense, obs.GaugeEdgeMapLastDense) and the
	// frontier's out-degree sum (obs.CtrEdgeMapEdges) per call. The
	// disabled path costs one nil check.
	Recorder *obs.Recorder
}

// EdgeMap applies F to edges (u, v) with u ∈ U and C(v) true, returning
// the subset of targets v for which F returned true (§2.1). A nil C is
// Ligra's cond_true: every target is admitted, with no call per edge.
//
// Contract (same as Ligra): in the sparse/push direction F may be called
// concurrently for the same target v from different sources, so F must
// be atomic and must return true at most once per target per call
// (typically via CAS); the returned subset then contains no duplicates.
// In the dense/pull direction F is called sequentially over the
// in-neighbors of each v and iteration stops early once C(v) becomes
// false, so F may be non-atomic with respect to v.
func EdgeMap(g graph.Graph, u VertexSubset, c func(v graph.Vertex) bool,
	f func(src, dst graph.Vertex, w graph.Weight) bool, opt EdgeMapOptions) VertexSubset {

	n := g.NumVertices()
	if u.IsEmpty() {
		return Empty(n)
	}
	if opt.NoDense && opt.Recorder == nil {
		return edgeMapSparse(g, u, sparseWorkers(g, u), c, f, opt)
	}
	// One number decides the direction, sizes the sparse traversal's
	// fork and is what the recorder reports.
	degSum := u.OutDegreeSum(g)
	if !opt.NoDense && int64(u.Size())+degSum > g.NumEdges()/denseThresholdDivisor {
		recordDirection(opt.Recorder, true, degSum)
		return edgeMapDense(g, u, c, f, opt)
	}
	recordDirection(opt.Recorder, false, degSum)
	return edgeMapSparse(g, u, parallel.WorkersFor(int64(u.Size())+degSum), c, f, opt)
}

// sparseWorkers returns how many workers a push traversal over the
// out-edges of u in g merits: the work is |U| + Σ outdeg(U), so a
// frontier below parallel's cut-off is traversed inline on the caller
// however many vertices it has. At Procs() == 1 there is nothing to
// decide, and a subset that does not already carry its sum (see
// Frontier) is spared the walk.
func sparseWorkers(g graph.Graph, u VertexSubset) int {
	if !u.hasOutEdges && parallel.Procs() == 1 {
		return 1
	}
	return parallel.WorkersFor(int64(u.Size()) + u.OutDegreeSum(g))
}

// recordDirection reports one direction decision to the recorder. The
// edges figure is the frontier's out-degree sum — the exact sparse
// work bound, and the quantity Beamer's heuristic thresholds on (the
// dense traversal may scan fewer edges thanks to early exit).
func recordDirection(rec *obs.Recorder, dense bool, degSum int64) {
	if rec == nil {
		return
	}
	if dense {
		rec.Inc(obs.CtrEdgeMapDense)
		rec.SetGauge(obs.GaugeEdgeMapLastDense, 1)
	} else {
		rec.Inc(obs.CtrEdgeMapSparse)
		rec.SetGauge(obs.GaugeEdgeMapLastDense, 0)
	}
	rec.Add(obs.CtrEdgeMapEdges, degSum)
	rec.Observe(obs.HistEdgeMapEdges, degSum)
}

// weightAt returns the weight of edge j of an adjacency whose weight
// slice is ws: ws[j], or 0 on an unweighted graph (ws is nil).
func weightAt(ws []graph.Weight, j int) graph.Weight {
	if j < len(ws) {
		return ws[j]
	}
	return 0
}

// Every traversal below has the same shape: one g.OutAdj (or InAdj)
// call per vertex into the worker's own decode buffer, then a plain
// loop over the slices with c and f called directly; a nil c admits
// every target. Nothing is allocated per vertex or per edge: the
// buffers and the per-worker outputs come from the scratch pool and
// keep their capacity across calls.

// edgeMapSparse is the push traversal: map over the out-edges of U.
// The output is collected into one buffer per worker and concatenated,
// so the memory written is proportional to the output size (the §5
// optimization the paper credits for its single-thread edge), not to
// the source count. p is the worker count the traversal's work merits
// (sparseWorkers).
func edgeMapSparse(g graph.Graph, u VertexSubset, p int, c func(graph.Vertex) bool,
	f func(src, dst graph.Vertex, w graph.Weight) bool, opt EdgeMapOptions) VertexSubset {

	ids := u.Sparse()
	collect := !opt.NoOutput
	var out []graph.Vertex
	withWorkerParts(p, func(parts [][]graph.Vertex) {
		parallel.WithScratch(p, func(bufs []graph.AdjBuf) {
			parallel.Workers(len(ids), p, func(worker, lo, hi int) {
				local, buf := parts[worker], &bufs[worker]
				for _, src := range ids[lo:hi] {
					nbrs, ws := g.OutAdj(src, buf)
					debugCheckAdj(g, src, false, nbrs, ws)
					for j, dst := range nbrs {
						if (c == nil || c(dst)) && f(src, dst, weightAt(ws, j)) && collect {
							local = append(local, dst)
						}
					}
				}
				parts[worker] = local
			})
		})
		out = flatten(parts)
	})
	return FromSparse(g.NumVertices(), out)
}

// withWorkerParts runs f on a buffer-of-buffers (one slice per worker)
// borrowed from the scratch pool, every inner slice reset to empty with
// its capacity kept. f copies the survivors out with flatten before it
// returns, so nothing borrowed escapes.
func withWorkerParts[T any](p int, f func(parts [][]T)) {
	parallel.WithScratch(p, func(parts [][]T) {
		for i := range parts {
			parts[i] = parts[i][:0]
		}
		f(parts)
	})
}

// flatten concatenates per-worker buffers into one slice.
func flatten[T any](parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	flat := make([]T, 0, total)
	for _, p := range parts {
		flat = append(flat, p...)
	}
	return flat
}

// edgeMapDense is the pull traversal: every target v with C(v) true
// scans its in-neighbors for members of U and stops as soon as C(v)
// turns false (e.g. BFS sets the parent and stops). On a representation
// that decodes, v's list is decoded in full before the scan starts.
func edgeMapDense(g graph.Graph, u VertexSubset, c func(graph.Vertex) bool,
	f func(src, dst graph.Vertex, w graph.Weight) bool, opt EdgeMapOptions) VertexSubset {

	n := g.NumVertices()
	inU := u.Dense()
	var outMember []bool // stays nil under NoOutput
	if !opt.NoOutput {
		outMember = make([]bool, n)
	}
	p := parallel.WorkersFor(int64(n) + g.NumEdges())
	parallel.WithScratch(p, func(bufs []graph.AdjBuf) {
		parallel.Workers(n, p, func(worker, lo, hi int) {
			buf := &bufs[worker]
			for vi := lo; vi < hi; vi++ {
				dst := graph.Vertex(vi)
				if c != nil && !c(dst) {
					continue
				}
				nbrs, ws := g.InAdj(dst, buf)
				debugCheckAdj(g, dst, true, nbrs, ws)
				for j, src := range nbrs {
					if inU[src] && f(src, dst, weightAt(ws, j)) && outMember != nil {
						outMember[vi] = true
					}
					if c != nil && !c(dst) {
						break // the target is settled
					}
				}
			}
		})
	})
	if opt.NoOutput {
		return Empty(n)
	}
	return FromDense(n, outMember)
}

// EdgeMapTagged is the push-only edge map whose F returns an optional
// value of type T for the target vertex; the output is the tagged subset
// of targets that received a value. This is the maybe(T)-returning
// edgeMap the paper's ∆-stepping uses to capture each visited vertex's
// distance at the start of the round (Algorithm 2, lines 4–10): F must
// arrange (via CAS) that at most one source wins each target.
func EdgeMapTagged[T any](g graph.Graph, u VertexSubset, c func(v graph.Vertex) bool,
	f func(src, dst graph.Vertex, w graph.Weight) (T, bool)) Tagged[T] {

	ids, p := u.Sparse(), sparseWorkers(g, u)
	var outIDs []graph.Vertex
	var outVals []T
	withWorkerParts(p, func(idParts [][]graph.Vertex) {
		withWorkerParts(p, func(valParts [][]T) {
			parallel.WithScratch(p, func(bufs []graph.AdjBuf) {
				parallel.Workers(len(ids), p, func(worker, lo, hi int) {
					localIDs, localVals, buf := idParts[worker], valParts[worker], &bufs[worker]
					for _, src := range ids[lo:hi] {
						nbrs, ws := g.OutAdj(src, buf)
						debugCheckAdj(g, src, false, nbrs, ws)
						for j, dst := range nbrs {
							if c != nil && !c(dst) {
								continue
							}
							if val, ok := f(src, dst, weightAt(ws, j)); ok {
								localIDs = append(localIDs, dst)
								localVals = append(localVals, val)
							}
						}
					}
					idParts[worker], valParts[worker] = localIDs, localVals
				})
			})
			outIDs, outVals = flatten(idParts), flatten(valParts)
		})
	})
	return NewTagged(g.NumVertices(), outIDs, outVals)
}

// EdgeMapCount implements the paper's edgeMapSum (§2.1: edgeMapReduce
// with M = 1 and R = +): for every vertex v adjacent to U with C(v)
// true, it counts the number of edges from U reaching v and returns the
// tagged subset of touched vertices with their counts. k-core uses it to
// count edges removed from each neighbor of the peeled set.
//
// The reduction uses an atomic counter per touched vertex; the vertex
// that increments a counter from zero claims v for the output, so the
// output contains each touched vertex exactly once.
func EdgeMapCount(g graph.Graph, u VertexSubset, c func(v graph.Vertex) bool,
	scratch *CountScratch) Tagged[uint32] {

	n := g.NumVertices()
	scratch.ensure(n)
	cnt := scratch.counts
	ids, p := u.Sparse(), sparseWorkers(g, u)
	var touched []graph.Vertex
	withWorkerParts(p, func(parts [][]graph.Vertex) {
		parallel.WithScratch(p, func(bufs []graph.AdjBuf) {
			parallel.Workers(len(ids), p, func(worker, lo, hi int) {
				claimed, buf := parts[worker], &bufs[worker]
				for _, src := range ids[lo:hi] {
					nbrs, ws := g.OutAdj(src, buf)
					debugCheckAdj(g, src, false, nbrs, ws)
					for _, dst := range nbrs {
						if (c == nil || c(dst)) && parallel.AddUint32(&cnt[dst], 1) == 1 {
							claimed = append(claimed, dst)
						}
					}
				}
				parts[worker] = claimed
			})
		})
		touched = flatten(parts)
	})
	outIDs := touched // never reassigned, so the workers below capture it by value
	outVals := make([]uint32, len(outIDs))
	parallel.For(len(outIDs), parallel.DefaultGrain, func(i int) {
		v := outIDs[i]
		outVals[i] = cnt[v]
		cnt[v] = 0 // reset for the next call
	})
	return NewTagged(n, outIDs, outVals)
}

// CountScratch is the reusable counter array for EdgeMapCount. Reusing
// it across rounds keeps each round's allocation proportional to the
// frontier, not to n.
type CountScratch struct {
	counts []uint32
}

func (s *CountScratch) ensure(n int) {
	if len(s.counts) < n {
		s.counts = make([]uint32, n)
	}
}

// EdgeMapFilterCount implements the counting half of the paper's
// edgeMapFilter (§2.1): for each u ∈ U it counts the out-neighbors
// satisfying pred and returns the tagged subset of U with those counts.
func EdgeMapFilterCount(g graph.Graph, u VertexSubset,
	pred func(src, dst graph.Vertex) bool) Tagged[uint32] {

	ids, p := u.Sparse(), sparseWorkers(g, u)
	vals := make([]uint32, len(ids))
	parallel.WithScratch(p, func(bufs []graph.AdjBuf) {
		parallel.Workers(len(ids), p, func(worker, lo, hi int) {
			buf := &bufs[worker]
			for i := lo; i < hi; i++ {
				src := ids[i]
				nbrs, ws := g.OutAdj(src, buf)
				debugCheckAdj(g, src, false, nbrs, ws)
				var k uint32
				for _, dst := range nbrs {
					if pred(src, dst) {
						k++
					}
				}
				vals[i] = k
			}
		})
	})
	return NewTagged(g.NumVertices(), ids, vals)
}

// EdgeMapPack implements edgeMapFilter with the Pack option (§2.1): it
// removes the out-edges of each u ∈ U whose target fails pred, mutating
// the graph, and returns the tagged subset of U with the new degrees.
func EdgeMapPack(g graph.Packer, u VertexSubset,
	pred func(src, dst graph.Vertex) bool) Tagged[uint32] {

	ids, p := u.Sparse(), sparseWorkers(g, u)
	vals := make([]uint32, len(ids))
	parallel.Workers(len(ids), p, func(_, lo, hi int) {
		// One keep closure per block, re-aimed at each source: PackOut
		// takes it through the Packer interface, so a literal inside the
		// loop would be heap-allocated per vertex.
		var src graph.Vertex
		keep := func(dst graph.Vertex) bool { return pred(src, dst) }
		for i := lo; i < hi; i++ {
			src = ids[i]
			vals[i] = uint32(g.PackOut(src, keep))
		}
	})
	return NewTagged(g.NumVertices(), ids, vals)
}
