package ligra

import (
	"slices"
	"sync/atomic"

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
		return VertexSubset{n: n}
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
// loop over the slices. EdgeMap calls c and f directly (a nil c admits
// every target); EdgeMapSum and EdgeMapWriteMin take their condition
// and write as arrays and call nothing per edge. Nothing is allocated
// per vertex or per edge: the buffers and the per-worker outputs come
// from the scratch pool and keep their capacity across calls.

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
		return VertexSubset{n: n}
	}
	return FromDense(n, outMember)
}

// RoundFlag is the top bit of a distance in EdgeMapWriteMin's array,
// read through uint64(·): set on every vertex whose distance a round
// lowered, and cleared by the caller when it rebucketed the vertex
// (§4.2: "our actual implementation uses the highest bit of SP to
// represent Fl"). Distances themselves stay below it, so the array a
// run relaxed becomes its []int64 answer in place.
const RoundFlag uint64 = 1 << 63

// WriteMin lowers dist[v] to nd if nd is smaller than its distance,
// setting RoundFlag on it (Algorithm 2, Update): lowered reports the
// write, and the write that found the flag clear — the first to lower v
// this round — also gets v's pre-round distance back with first set.
// Concurrent calls on the same v are safe.
func WriteMin(dist []int64, v graph.Vertex, nd uint64) (pre uint64, lowered, first bool) {
	for {
		old := uint64(atomic.LoadInt64(&dist[v]))
		if nd >= old&^RoundFlag {
			return 0, false, false
		}
		if atomic.CompareAndSwapInt64(&dist[v], int64(old), int64(RoundFlag|nd)) {
			return old &^ RoundFlag, true, old&RoundFlag == 0
		}
	}
}

// EdgeMapWriteMin is the relaxation step of Algorithm 2 (lines 4–10)
// as one push traversal: over every out-edge (s, v) of U it lowers
// dist[v] to dist[s] + w(s, v) with WriteMin, and returns the tagged
// subset of the targets it was first to lower this round, each with its
// pre-round distance — the maybe(T)-returning edgeMap that lets
// ∆-stepping rebucket a vertex from where it was — written to dst (see
// Tagged), together with the number of writes that lowered a distance.
// The source's distance is read once, before its edges; a source
// lowered during the round is in the output, so the caller revisits it.
// The caller clears RoundFlag on the output before the next call.
func EdgeMapWriteMin(g graph.Graph, u VertexSubset, dist []int64, dst *Tagged[uint64]) (Tagged[uint64], int64) {
	ids, p := u.Sparse(), sparseWorkers(g, u)
	outIDs, outVals := dst.take()
	var relaxed int64
	withParts(p, func(parts []part[uint64]) {
		if p == 1 {
			outIDs, outVals, relaxed = relaxInto(g, ids, dist, &parts[0].buf, outIDs, outVals)
			return
		}
		parallel.Workers(len(ids), p, func(worker, lo, hi int) {
			w := &parts[worker]
			var r int64
			w.ids, w.vals, r = relaxInto(g, ids[lo:hi], dist, &w.buf, w.ids, w.vals)
			w.count += r
		})
		for i := range parts {
			relaxed += parts[i].count
		}
		outIDs, outVals = collect(parts, outIDs, outVals)
	})
	return dst.put(g.NumVertices(), outIDs, outVals), relaxed
}

// relaxInto is EdgeMapWriteMin over one block of sources: the targets
// it was first to lower are appended to outIDs with their pre-round
// distances in outVals, and the writes that lowered one are counted.
func relaxInto(g graph.Graph, ids []graph.Vertex, dist []int64, buf *graph.AdjBuf,
	outIDs []graph.Vertex, outVals []uint64) ([]graph.Vertex, []uint64, int64) {

	var relaxed int64
	for _, src := range ids {
		base := uint64(atomic.LoadInt64(&dist[src])) &^ RoundFlag
		nbrs, ws := g.OutAdj(src, buf)
		debugCheckAdj(g, src, false, nbrs, ws)
		for j, dst := range nbrs {
			pre, lowered, first := WriteMin(dist, dst, base+uint64(weightAt(ws, j)))
			if lowered {
				relaxed++
			}
			if first {
				outIDs = push(outIDs, dst)
				outVals = push(outVals, pre)
			}
		}
	}
	return outIDs, outVals, relaxed
}

// Above is an edge map's condition as data: it admits the target v iff
// D[v] > K. A peel's liveness test has this form — a vertex's degree
// against the round's bucket (k-core's frontier peel) — so the count
// loops test an array instead of calling a function per edge. D covers
// every vertex of the graph.
type Above struct {
	D []uint32
	K uint32
}

// EdgeMapSum is the paper's edgeMapSum(G, U, Update) (§2.1:
// edgeMapReduce with M = 1 and R = +; Algorithm 1, line 16): for every
// vertex v adjacent to U that live admits it counts the edges from U
// reaching v, then calls update(v, count) — exactly once per touched
// vertex, after all counting has finished, so update may change the
// array live reads — and returns the tagged subset of the vertices and
// values update kept, written to dst (see Tagged). k-core's update
// lowers v's induced degree and reports the bucket move, so the output
// is the updateBuckets feed and nothing else is materialized.
//
// Pass 1 adds to a counter per target — atomically when the pass forks,
// with plain increments when it runs inline; the edge that raises a
// counter from zero claims v into its worker's buffer, so each touched
// vertex is claimed once. Pass 2 reads and zeroes each claimed counter,
// calls update and compacts the survivors in place: one loop over the
// destination's own array at Procs() == 1, at most two forked regions
// otherwise. update runs concurrently for distinct vertices.
func EdgeMapSum[T any](g graph.Graph, u VertexSubset, live Above,
	update func(v graph.Vertex, count uint32) (T, bool), dst *Tagged[T]) Tagged[T] {

	n := g.NumVertices()
	ids, p := u.Sparse(), sparseWorkers(g, u)
	outIDs, outVals := dst.take()
	cnt := dst.counters(n)
	withParts(p, func(parts []part[T]) {
		if p == 1 {
			outIDs = countOwned(g, ids, live, cnt, &parts[0].buf, outIDs)
			outIDs, outVals = sumInto(cnt, update, outIDs, outIDs[:0], outVals)
			return
		}
		parallel.Workers(len(ids), p, func(worker, lo, hi int) {
			w := &parts[worker]
			w.ids = countInto(g, ids[lo:hi], live, cnt, &w.buf, w.ids)
		})
		// The join above orders every atomic add before the plain reads
		// and resets of pass 2.
		touched := 0
		for i := range parts {
			touched += len(parts[i].ids)
		}
		if parallel.WorkersFor(int64(touched)) == 1 {
			for i := range parts {
				outIDs, outVals = sumInto(cnt, update, parts[i].ids, outIDs, outVals)
			}
			return
		}
		parallel.Workers(len(parts), len(parts), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				w := &parts[i]
				w.ids, w.vals = sumInto(cnt, update, w.ids, w.ids[:0], w.vals)
			}
		})
		outIDs, outVals = collect(parts, outIDs, outVals)
	})
	return dst.put(n, outIDs, outVals)
}

// counters returns dst's counter array for a universe of n vertices,
// all zero; a nil dst gets a fresh one.
func (dst *Tagged[T]) counters(n int) []uint32 {
	if dst == nil {
		return make([]uint32, n)
	}
	if len(dst.counts) < n {
		dst.counts = make([]uint32, n)
	}
	return dst.counts
}

// countInto is pass 1 of EdgeMapSum over one block of sources: the
// targets this block was first to touch are appended to claimed.
func countInto(g graph.Graph, ids []graph.Vertex, live Above, cnt []uint32,
	buf *graph.AdjBuf, claimed []graph.Vertex) []graph.Vertex {

	d, k := live.D, live.K
	for _, src := range ids {
		nbrs, ws := g.OutAdj(src, buf)
		debugCheckAdj(g, src, false, nbrs, ws)
		for _, dst := range nbrs {
			if d[dst] > k && atomic.AddUint32(&cnt[dst], 1) == 1 {
				claimed = push(claimed, dst)
			}
		}
	}
	return claimed
}

// countOwned is countInto for a caller that owns cnt outright, the
// inline arm of EdgeMapSum: no other worker touches the counters, so it
// counts with plain increments instead of atomic adds.
func countOwned(g graph.Graph, ids []graph.Vertex, live Above, cnt []uint32,
	buf *graph.AdjBuf, claimed []graph.Vertex) []graph.Vertex {

	d, k := live.D, live.K
	for _, src := range ids {
		nbrs, ws := g.OutAdj(src, buf)
		debugCheckAdj(g, src, false, nbrs, ws)
		for _, dst := range nbrs {
			if d[dst] > k {
				if cnt[dst]++; cnt[dst] == 1 {
					claimed = push(claimed, dst)
				}
			}
		}
	}
	return claimed
}

// sumInto is pass 2 of EdgeMapSum over one block of claimed vertices:
// each counter is read and reset for the next call, and the pairs
// update keeps are appended to ids and vals. ids may be claimed[:0]:
// the survivors are then compacted in place.
func sumInto[T any](cnt []uint32, update func(graph.Vertex, uint32) (T, bool), claimed []graph.Vertex,
	ids []graph.Vertex, vals []T) ([]graph.Vertex, []T) {

	for _, v := range claimed {
		count := cnt[v]
		cnt[v] = 0
		if val, ok := update(v, count); ok {
			ids = push(ids, v)
			vals = push(vals, val)
		}
	}
	return ids, vals
}

// EdgeMapFilterCount implements the counting half of the paper's
// edgeMapFilter (§2.1): for each u ∈ U it counts the out-neighbors
// satisfying pred and returns the tagged subset of U with those counts,
// written to dst (see Tagged), in U's order.
func EdgeMapFilterCount(g graph.Graph, u VertexSubset,
	pred func(src, dst graph.Vertex) bool, dst *Tagged[uint32]) Tagged[uint32] {

	ids, p := u.Sparse(), sparseWorkers(g, u)
	outIDs, outVals := dst.take()
	outIDs = append(outIDs, ids...)
	vals := slices.Grow(outVals, len(ids))[:len(ids)] // never reassigned: the workers capture it by value
	parallel.WithScratch(p, func(bufs []graph.AdjBuf) {
		if p == 1 {
			filterCountInto(g, ids, pred, &bufs[0], vals)
			return
		}
		parallel.Workers(len(ids), p, func(worker, lo, hi int) {
			filterCountInto(g, ids[lo:hi], pred, &bufs[worker], vals[lo:hi])
		})
	})
	return dst.put(g.NumVertices(), outIDs, vals)
}

// filterCountInto is EdgeMapFilterCount over one block of sources.
func filterCountInto(g graph.Graph, ids []graph.Vertex, pred func(src, dst graph.Vertex) bool,
	buf *graph.AdjBuf, counts []uint32) {

	for i, src := range ids {
		nbrs, ws := g.OutAdj(src, buf)
		debugCheckAdj(g, src, false, nbrs, ws)
		var k uint32
		for _, dst := range nbrs {
			if pred(src, dst) {
				k++
			}
		}
		counts[i] = k
	}
}

// EdgeMapPack implements edgeMapFilter with the Pack option (§2.1): it
// removes the out-edges of each u ∈ U whose target fails pred, mutating
// the graph, and returns the tagged subset of U with the new degrees,
// written to dst (see Tagged), in U's order.
func EdgeMapPack(g graph.Packer, u VertexSubset,
	pred func(src, dst graph.Vertex) bool, dst *Tagged[uint32]) Tagged[uint32] {

	ids, p := u.Sparse(), sparseWorkers(g, u)
	outIDs, outVals := dst.take()
	outIDs = append(outIDs, ids...)
	vals := slices.Grow(outVals, len(ids))[:len(ids)] // never reassigned: the workers capture it by value
	parallel.WithScratch(p, func(keeps []packKeep) {
		if p == 1 {
			keeps[0].pack(g, ids, pred, vals)
			return
		}
		parallel.Workers(len(ids), p, func(worker, lo, hi int) {
			keeps[worker].pack(g, ids[lo:hi], pred, vals[lo:hi])
		})
	})
	return dst.put(g.NumVertices(), outIDs, vals)
}

// packKeep is one worker's keep predicate for PackOut. PackOut takes it
// through the Packer interface, so a literal would be heap-allocated
// where it is written; this one lives in the scratch pool, is built
// once, and is re-aimed at each pred and source. Padded to a cache line:
// a worker stores src per vertex and loads it per edge.
type packKeep struct {
	src  graph.Vertex
	pred func(src, dst graph.Vertex) bool
	keep func(dst graph.Vertex) bool
	_    [40]byte
}

// pack is EdgeMapPack over one block of sources.
func (k *packKeep) pack(g graph.Packer, ids []graph.Vertex, pred func(src, dst graph.Vertex) bool, degs []uint32) {
	if k.keep == nil {
		k.keep = func(dst graph.Vertex) bool { return k.pred(k.src, dst) }
	}
	k.pred = pred
	for i, src := range ids {
		k.src = src
		degs[i] = uint32(g.PackOut(src, k.keep))
	}
	k.pred = nil // the pool must not keep the caller's closure alive
}
