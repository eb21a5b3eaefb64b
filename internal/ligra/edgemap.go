package ligra

import (
	"math/bits"
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
	// NoDense forces the sparse (push) traversal. A caller whose F
	// races for per-target state with a CAS (set cover's element
	// reservation) is push-only.
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
// every target); EdgeMapWriteMin takes its write as an array and calls
// nothing per edge. Nothing is allocated
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

// writeMin lowers dist[v] to nd if nd is smaller than its distance,
// setting RoundFlag on it (Algorithm 2, Update): lowered reports the
// write, and the write that found the flag clear — the first to lower v
// this round — also gets v's pre-round distance back with first set.
// Concurrent calls on the same v are safe.
func writeMin(dist []int64, v graph.Vertex, nd uint64) (pre uint64, lowered, first bool) {
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
// dist[v] to dist[s] + w(s, v) with writeMin, and returns the tagged
// subset of the targets it was first to lower this round, each with its
// pre-round distance — the maybe(T)-returning edgeMap that lets
// ∆-stepping rebucket a vertex from where it was — written to dst (see
// Tagged), together with the number of writes that lowered a distance.
// The source's distance is read once, before its edges; a source
// lowered during the round is in the output, so the caller revisits it.
// The caller clears RoundFlag on the output before the next call.
//
// The sources are relaxed in one of two orders, chosen by the number
// EdgeMap goes dense on: a frontier whose |U| + Σ outdeg(U) passes
// m/20 is relaxed in identifier order, each source once (byID), so its
// offsets, edges and weights are read front to back; a smaller one in
// U's order. A call whose work merits one worker runs on the caller
// alone, where nothing races, and writes with plain loads and stores
// (relaxSeq); a forked one writes through writeMin, each worker over a
// contiguous block of that order. The plain arm leaves exactly the
// distances, output and count of relaxing the edges one by one in that
// order.
func EdgeMapWriteMin(g graph.Graph, u VertexSubset, dist []int64, dst *Tagged[uint64]) (Tagged[uint64], int64) {
	work := int64(u.Size()) + u.OutDegreeSum(g)
	p := parallel.WorkersFor(work)
	outIDs, outVals := dst.take()
	var relaxed int64
	relax := func(ids []graph.Vertex) {
		withParts(p, func(parts []part[uint64]) {
			if p == 1 {
				outIDs, outVals, relaxed = relaxSeq(g, ids, dist, &parts[0].buf, outIDs, outVals)
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
	}
	// A dense subset's ids already come out in order.
	if u.dense == nil && work > g.NumEdges()/denseThresholdDivisor {
		parallel.WithScratch(1, func(o []byID) { relax(o[0].sorted(u.n, u.sparse)) })
	} else {
		relax(u.Sparse())
	}
	return dst.put(g.NumVertices(), outIDs, outVals), relaxed
}

// byID puts a frontier in identifier order: a bitmap of one bit per
// vertex, all zero between calls, and the list it is read back into.
// Only EdgeMapWriteMin borrows one (through parallel.WithScratch), so
// no other borrower can leave a bit set.
type byID struct {
	words []uint64
	ids   []graph.Vertex
}

// sorted returns ids in increasing order, each once: a bit is set per
// id, then one scan over the bitmap's words writes out the set bits and
// clears each word it reads. The result is valid until the next call.
// An id out of range panics before the scan; the bits already set are
// cleared on the way out.
func (o *byID) sorted(n int, ids []graph.Vertex) []graph.Vertex {
	nw := (n + 63) / 64
	if cap(o.words) < nw {
		o.words = make([]uint64, nw)
	}
	if cap(o.ids) < len(ids) {
		o.ids = make([]graph.Vertex, max(len(ids), 2*cap(o.ids)))
	}
	words, out := o.words[:nw], o.ids[:len(ids)]
	scanned := false
	defer func() {
		if !scanned {
			clear(words)
		}
	}()
	for _, v := range ids {
		words[v/64] |= 1 << (v % 64)
	}
	k := 0
	for i, w := range words {
		if w == 0 {
			continue
		}
		words[i] = 0
		for ; w != 0; w &= w - 1 {
			out[k] = graph.Vertex(i*64 + bits.TrailingZeros64(w))
			k++
		}
	}
	scanned = true
	debugCheckByID(o.words[:cap(o.words)], out[:k])
	return out[:k]
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
			pre, lowered, first := writeMin(dist, dst, base+uint64(weightAt(ws, j)))
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

// relaxSeq is relaxInto for a call that runs on one worker: no other
// goroutine touches dist during it, so each write-min is a plain load,
// compare and store, with writeMin's effect on dist and the output.
func relaxSeq(g graph.Graph, ids []graph.Vertex, dist []int64, buf *graph.AdjBuf,
	outIDs []graph.Vertex, outVals []uint64) ([]graph.Vertex, []uint64, int64) {

	var relaxed int64
	for _, src := range ids {
		base := uint64(dist[src]) &^ RoundFlag
		nbrs, ws := g.OutAdj(src, buf)
		debugCheckAdj(g, src, false, nbrs, ws)
		for j, dst := range nbrs {
			nd := base + uint64(weightAt(ws, j))
			old := uint64(dist[dst])
			if nd >= old&^RoundFlag {
				continue
			}
			dist[dst] = int64(RoundFlag | nd)
			relaxed++
			if old&RoundFlag == 0 {
				outIDs = push(outIDs, dst)
				outVals = push(outVals, old)
			}
		}
	}
	return outIDs, outVals, relaxed
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
