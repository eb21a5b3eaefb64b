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
// slice is ws: ws[j], or 0 on an unweighted graph (ws is nil). Only
// EdgeMap's two arms read weights through it.
func weightAt(ws []graph.Weight, j int) graph.Weight {
	if j < len(ws) {
		return ws[j]
	}
	return 0
}

// Every traversal below makes one g.OutAdj (or InAdj) call per vertex
// into the worker's own decode buffer and then loops over the slices.
// EdgeMap's loops call c and f per edge (a nil c admits every target)
// and read weights through weightAt. EdgeMapWriteMin takes its write as
// an array: its per-vertex driver (relaxInto) hands each adjacency to a
// leaf loop that makes no call and no weightedness test per edge and
// writes its output by index into spare capacity. Nothing is allocated
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
// (lowerSeq); a forked one writes through writeMin (lowerShared), each
// worker over a contiguous block of that order. The plain arm leaves
// exactly the distances, output and count of relaxing the edges one by
// one in that order.
func EdgeMapWriteMin(g graph.Graph, u VertexSubset, dist []int64, dst *Tagged[uint64]) (Tagged[uint64], int64) {
	work := int64(u.Size()) + u.OutDegreeSum(g)
	p := parallel.WorkersFor(work)
	outIDs, outVals := dst.take()
	var relaxed int64
	relax := func(ids []graph.Vertex) {
		withParts(p, func(parts []part[uint64]) {
			if p == 1 {
				outIDs, outVals, relaxed = relaxInto(g, ids, dist, &parts[0].buf, outIDs, outVals, false)
				return
			}
			parallel.Workers(len(ids), p, func(worker, lo, hi int) {
				w := &parts[worker]
				var r int64
				w.ids, w.vals, r = relaxInto(g, ids[lo:hi], dist, &w.buf, w.ids, w.vals, true)
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

// relaxInto is EdgeMapWriteMin over one block of sources on one
// worker: the targets it was first to lower are appended to outIDs with
// their pre-round distances in outVals, and the writes that lowered one
// are counted. It reads each source's distance once and hands its
// adjacency to a leaf loop: lowerShared when other workers relax the
// same dist (shared), lowerSeq when none does. The leaves write pairs
// into the outputs' spare capacity. One that finds it full stops at the
// edge that needs a slot; the full output is doubled, as push doubles
// it, and the leaf resumes at that edge, so the outputs grow exactly
// where per-pair appends would grow them. An unweighted adjacency is
// relaxed against zeroWeights, a run of it at a time, so each leaf has
// one loop and no per-edge test of weightedness.
func relaxInto(g graph.Graph, ids []graph.Vertex, dist []int64, buf *graph.AdjBuf,
	outIDs []graph.Vertex, outVals []uint64, shared bool) ([]graph.Vertex, []uint64, int64) {

	w := minWriter{dist: dist, k: len(outIDs)}
	w.open(outIDs, outVals)
	var relaxed int64
	for _, src := range ids {
		var base uint64
		if shared {
			base = uint64(atomic.LoadInt64(&dist[src])) &^ RoundFlag
		} else {
			base = uint64(dist[src]) &^ RoundFlag
		}
		nbrs, ws := g.OutAdj(src, buf)
		debugCheckAdj(g, src, false, nbrs, ws)
		for len(nbrs) > 0 {
			run, wrun := nbrs, ws
			if ws == nil {
				run = nbrs[:min(len(nbrs), len(zeroWeights))]
				wrun = zeroWeights[:len(run)]
			}
			var j int
			var r int64
			if shared {
				j, r = w.lowerShared(base, run, wrun)
			} else {
				j, r = w.lowerSeq(base, run, wrun)
			}
			relaxed += r
			if j < len(run) { // the spare is full: grow, then resume at edge j
				outIDs, outVals = w.ids[:w.k], w.vals[:w.k]
				if len(outIDs) == cap(outIDs) {
					outIDs = doubled(outIDs)
				}
				if len(outVals) == cap(outVals) {
					outVals = doubled(outVals)
				}
				w.open(outIDs, outVals)
			}
			nbrs = nbrs[j:]
			if ws != nil {
				ws = ws[j:]
			}
		}
	}
	return w.ids[:w.k], w.vals[:w.k], relaxed
}

// zeroWeights stands in for the weights of an unweighted adjacency. It
// is never written.
var zeroWeights [1024]graph.Weight

// minWriter is what relaxInto's leaf loops share across its sources:
// the distances, and the two outputs at their full capacity with k
// pairs written. A leaf reads it once and writes it only when it lowers
// a target for the first time, so its per-edge loop keeps its registers
// for the edge.
type minWriter struct {
	dist []int64
	ids  []graph.Vertex
	vals []uint64 // as long as ids
	k    int
}

// open makes the capacity both outputs have writable.
func (w *minWriter) open(ids []graph.Vertex, vals []uint64) {
	n := min(cap(ids), cap(vals))
	w.ids, w.vals = ids[:n], vals[:n]
}

// lowerSeq relaxes the edges (s, nbrs[j]) of weight ws[j] from a source
// s at distance base, for a call that runs on one worker: nothing else
// touches dist, so each write-min is a plain load, compare and store,
// with writeMin's effect on dist. Each target lowered for the first
// time this round is written to w with its pre-round distance. It
// returns the edges relaxed (all of them, or the first j when edge j
// needs a slot and w is full) and the number of lowering writes. ws is
// as long as nbrs.
func (w *minWriter) lowerSeq(base uint64, nbrs []graph.Vertex, ws []graph.Weight) (int, int64) {
	dist, ws := w.dist, ws[:len(nbrs)]
	var lowered int64
	for j, v := range nbrs {
		nd := base + uint64(ws[j])
		old := uint64(dist[v])
		if nd >= old&^RoundFlag {
			continue
		}
		if old&RoundFlag == 0 {
			if w.k >= len(w.ids) {
				return j, lowered
			}
			w.ids[w.k], w.vals[w.k] = v, old
			w.k++
		}
		dist[v] = int64(RoundFlag | nd)
		lowered++
	}
	return len(nbrs), lowered
}

// lowerShared is lowerSeq for a forked call, where other workers lower
// the same targets: an atomic load skips every edge that cannot lower
// its target, and writeMin makes the writes that can. A flag, once set,
// stays set for the round, so a target whose flag is clear when w is
// full is the only one that can need a slot.
func (w *minWriter) lowerShared(base uint64, nbrs []graph.Vertex, ws []graph.Weight) (int, int64) {
	dist, ws := w.dist, ws[:len(nbrs)]
	var lowered int64
	for j, v := range nbrs {
		nd := base + uint64(ws[j])
		if nd >= uint64(atomic.LoadInt64(&dist[v]))&^RoundFlag {
			continue
		}
		if w.k >= len(w.ids) && atomic.LoadInt64(&dist[v]) >= 0 {
			return j, lowered
		}
		pre, ok, first := writeMin(dist, v, nd)
		if ok {
			lowered++
		}
		if first {
			w.ids[w.k], w.vals[w.k] = v, pre
			w.k++
		}
	}
	return len(nbrs), lowered
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
