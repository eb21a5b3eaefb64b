// Package kcore computes coreness values (the k-core decomposition) of
// an undirected graph. It contains three implementations:
//
//   - Coreness: the paper's work-efficient bucketed peeling algorithm
//     (Algorithm 1, §4.1) — the first work-efficient parallel k-core
//     algorithm with non-trivial parallelism: O(m + n) expected work
//     and O(ρ log n) depth w.h.p., where ρ is the graph's peeling
//     complexity (Theorem 4.1). A round splits its bucket over the
//     workers its work merits, and each worker keeps peeling, in its own
//     queue, the vertices its decrements drop to the current level, so
//     a round exhausts its level instead of cascading through the
//     bucket structure (vertical granularity control, arXiv
//     2502.08042) and the rounds are the distinct coreness values at
//     every P.
//
//   - CorenessLigra: the work-inefficient frontier-based algorithm that
//     existing frameworks (Ligra et al.) use. It scans all remaining
//     vertices once per core value, for O(k_max·n + m) work — the
//     baseline Table 3 and Figure 2 compare against.
//
//   - CorenessBZ: the sequential O(m + n) Batagelj–Zaversnik bucket
//     algorithm [4], the "well-tuned sequential baseline" (the paper's
//     single-thread comparisons, §5).
//
// The coreness of v is the largest k such that v belongs to a subgraph
// with minimum induced degree k.
package kcore

import (
	"context"
	"fmt"
	"sync/atomic"

	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// Options configures the bucketed algorithm.
type Options struct {
	// Buckets is passed through to the bucket structure (open-range
	// size).
	Buckets bucket.Options
	// Recorder, when non-nil, receives one RoundMetrics per peeling
	// round plus the bucket structure's counters. Nil disables
	// telemetry with only nil-check overhead.
	Recorder *obs.Recorder
	// Ctx, when non-nil, is checked before every round and, inside a
	// round, by each worker once per pollWork of its peeled work; if
	// it is done the run stops after the round, which hands what it
	// had not peeled back to the bucket structure, and Result.Err
	// reports a *obs.Canceled with partial progress. Nil costs nothing.
	Ctx context.Context
}

// Result carries the coreness values along with the measurements the
// experiment harness reports.
type Result struct {
	// Coreness[v] is the coreness (maximum core number) of v.
	Coreness []uint32
	// Rounds is the number of bucket rounds. Coreness peels each level
	// to its end in one round at every P, so it takes one round per
	// distinct coreness value (fewer if canceled);
	// CorenessLigra takes exactly the peeling complexity ρ of §4.1.
	Rounds int64
	// BucketStats is the traffic through the bucket structure (zero for
	// implementations that do not use one).
	BucketStats bucket.Stats
	// VerticesScanned counts vertex inspections outside edge traversal:
	// the work-efficiency experiment (Table 1) compares this between
	// Coreness (O(n + m/...) total) and CorenessLigra (O(k_max·n)).
	VerticesScanned int64
	// EdgesTraversed counts neighbor visits.
	EdgesTraversed int64
	// Err is nil on a completed run, or a *obs.Canceled (wrapping
	// obs.ErrCanceled) if the run was stopped by Options.Ctx. The
	// partial Coreness values cover exactly the peeled vertices; the
	// counters cover the completed rounds.
	Err error
}

func requireSymmetric(g graph.Graph) {
	if !g.Symmetric() {
		panic(fmt.Sprintf("kcore: requires an undirected graph (n=%d is directed); symmetrize first", g.NumVertices()))
	}
}

// Coreness runs the work-efficient bucketed peeling algorithm
// (Algorithm 1). The graph must be undirected, and no vertex may have
// 2³¹ or more neighbors (D's top bit marks a vertex lowered in the
// current round).
func Coreness(g graph.Graph, opt Options) Result {
	requireSymmetric(g)
	n := g.NumVertices()
	res := Result{Coreness: make([]uint32, n)}
	if n == 0 {
		return res
	}

	// D[v] starts as deg(v) and tracks the induced degree of v in the
	// not-yet-peeled subgraph; once v is peeled it freezes at v's
	// coreness. The bucket structure reads D through its d function.
	d := res.Coreness
	checkDegree(int64(parallel.Max(n, parallel.DefaultGrain, func(v int) int {
		deg := g.OutDegree(graph.Vertex(v))
		d[v] = uint32(deg)
		return deg
	})))
	lp := bucket.Loop{Algo: "kcore", Recorder: opt.Recorder, Ctx: opt.Ctx}
	// The round's state and its worker bodies are built once, and the
	// peelers with their buffers and the bucket structure are borrowed
	// for the run: a round allocates nothing, and neither does a run
	// that follows one as large.
	parallel.WithScratch(parallel.Procs(), func(ps []peeler) {
		for i := range ps {
			ps[i].since = 0 // the rest is reset before a round uses it
		}
		lp.With(n, func(i uint32) bucket.ID { return d[i] }, bucket.Increasing, opt.Buckets, func(b *bucket.Par) {
			r := round{g: g, d: d, b: b, cancel: obs.NewCancelCheck(opt.Ctx), ps: ps}
			res.Rounds, res.Err = lp.Run(b, r.body(&res))
			res.BucketStats = b.Stats()
		})
	})
	return res
}

// body is Coreness's round over the run r describes, counting into res.
func (r *round) body(res *Result) func(k bucket.ID, ids []uint32) (int64, bool) {
	g, d, b, n := r.g, r.d, r.b, len(r.d)
	peel := func(w, lo, hi int) { r.ps[w].peel(r, r.ids[lo:hi]) }
	rebucket := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r.ps[i].rebucket(r)
		}
	}
	batch := &r.ps[0]
	feed := func(j int) (uint32, bucket.Dest) { return batch.ids[j], batch.dests[j] }
	var dbg debugState
	dbg.init(n)

	finished := 0
	return func(k bucket.ID, ids []uint32) (int64, bool) {
		// All vertices in the bucket have coreness k (their D values
		// already equal k by the bucket-liveness invariant). Each worker
		// peels a share of them and then, in its own queue, every
		// vertex its decrements drop to k, so the round exhausts level
		// k (vertical granularity control, arXiv 2502.08042).
		r.k, r.ids = k, ids
		work := int64(len(ids)) + ligra.Frontier(g, ids).OutDegreeSum(g)
		nw := min(parallel.WorkersFor(work), len(r.ps))
		r.shared = nw > 1
		for i := range r.ps[:nw] {
			r.ps[i].reset()
		}
		if nw == 1 {
			peel(0, 0, len(ids))
		} else {
			parallel.Workers(len(ids), nw, peel)
		}
		// Only after the join is each touched vertex's D final for the
		// round: each peeler clears its own marks and computes its own
		// destinations, then the batches go to one UpdateBuckets.
		touched := 0
		for i := range r.ps[:nw] {
			touched += len(r.ps[i].touched)
		}
		if w := min(nw, parallel.WorkersFor(int64(touched))); w == 1 {
			rebucket(0, 0, nw)
		} else {
			parallel.Workers(nw, w, rebucket)
		}
		peeled, edges, rest := 0, int64(0), 0
		for i := range r.ps[:nw] {
			p := &r.ps[i]
			peeled, edges, rest = peeled+p.head, edges+p.edges, rest+len(p.queue)-p.head
			if i > 0 {
				batch.ids = append(batch.ids, p.ids...)
				batch.dests = append(batch.dests, p.dests...)
			}
		}
		if rest > 0 {
			// The round was canceled: the untraversed queues (all at
			// D == k) go back into bucket k, and Loop.Run stops.
			dest := b.GetBucket(bucket.Nil, k)
			for i := range r.ps[:nw] {
				p := &r.ps[i]
				for _, v := range p.queue[p.head:] {
					batch.ids = append(batch.ids, v)
					batch.dests = append(batch.dests, dest)
				}
			}
		}
		b.UpdateBuckets(len(batch.ids), feed)
		dbg.check(d, k, r.ps[:nw], rest == 0)
		finished += peeled
		res.VerticesScanned += int64(peeled)
		res.EdgesTraversed += edges
		return edges, finished == n
	}
}

// mark is D's top bit. A worker sets it with the first decrement that
// leaves v above k and records v's pre-round D beside it; it is
// cleared when v reaches k and after the round's join. Degrees stay
// below it (checkDegree).
const mark = 1 << 31

// checkDegree refuses a graph whose largest degree would reach mark.
func checkDegree(maxDeg int64) {
	if maxDeg >= mark {
		panic(fmt.Sprintf("kcore: a vertex has %d neighbors; Coreness supports fewer than 2^31", maxDeg))
	}
}

// pollWork is how much peeled work (one unit per vertex and per edge,
// as for parallel.WorkersFor) a worker does between two cancellation
// polls: about the fork cut-off, ≈30–40 µs, so a poll's clock read is
// lost in it and a deadline is overrun by no more than that.
const pollWork = 8192

// round is what a round's workers share; Coreness sets k and ids
// before each round.
type round struct {
	g      graph.Graph
	d      []uint32
	b      *bucket.Par
	k      bucket.ID
	ids    []uint32
	shared bool // the round has more than one worker
	cancel obs.CancelCheck
	stop   atomic.Bool // a worker's poll found the run canceled
	ps     []peeler    // one per worker; ps[0]'s batch is the round's
}

// peeler is one worker's share of a round. Its buffers are borrowed
// for the run and keep their capacity from run to run, so a round
// allocates nothing once they have grown.
type peeler struct {
	queue   []uint32 // this worker's peel order: its extracted ids, then every vertex its decrements drop to k
	head    int      // queue[:head] is peeled; the rest is handed back
	touched []uint32 // the vertices whose mark this worker set
	pre     []uint32 // pre[j] is touched[j]'s D before the round
	ids     []uint32 // the rebucketing batch, its destinations
	dests   []bucket.Dest
	edges   int64
	since   int64 // work since the last cancellation poll
	buf     graph.AdjBuf
	_       [64]byte // keeps neighboring workers' fields off one cache line
}

func (p *peeler) reset() {
	p.queue, p.head = p.queue[:0], 0
	p.touched, p.pre = p.touched[:0], p.pre[:0]
	p.ids, p.dests = p.ids[:0], p.dests[:0]
	p.edges = 0
}

// peel appends ids to the worker's queue and peels the queue to its
// end: each dequeued vertex lowers its live neighbors' D by one, never
// below k, and the worker whose decrement reaches k queues the
// neighbor, so each vertex is peeled once, in this round, without going
// back through UpdateBuckets and NextBucket. Every pollWork of peeled
// work it polls for cancellation; once that trips, on any worker, the
// rest of the queue is left unpeeled.
func (p *peeler) peel(r *round, ids []uint32) {
	p.queue = append(p.queue, ids...)
	for ; p.head < len(p.queue); p.head++ {
		if p.since >= pollWork {
			p.since = 0
			if r.stop.Load() || r.cancel.Stopped() != nil {
				r.stop.Store(true)
				return
			}
		}
		nbrs, _ := r.g.OutAdj(p.queue[p.head], &p.buf)
		p.edges += int64(len(nbrs))
		p.since += 1 + int64(len(nbrs))
		if r.shared {
			p.lowerShared(r.d, r.k, nbrs)
		} else {
			p.lower(r.d, r.k, nbrs)
		}
	}
}

// lower is the per-edge step of a round with one worker: plain loads
// and stores.
func (p *peeler) lower(d []uint32, k bucket.ID, nbrs []graph.Vertex) {
	for _, v := range nbrs {
		if old := d[v]; old&^mark > k {
			next := decrement(old, k)
			d[v] = next
			p.lowered(v, old, next)
		}
	}
}

// lowerShared is the per-edge step of a round whose workers share D: a
// compare-and-swap, so two workers lowering one vertex never take it
// below k and exactly one of them sees it reach k.
func (p *peeler) lowerShared(d []uint32, k bucket.ID, nbrs []graph.Vertex) {
	for _, v := range nbrs {
		for old := atomic.LoadUint32(&d[v]); old&^mark > k; old = atomic.LoadUint32(&d[v]) {
			if next := decrement(old, k); atomic.CompareAndSwapUint32(&d[v], old, next) {
				p.lowered(v, old, next)
				break
			}
		}
	}
}

// decrement is D one lower, marked unless it has reached k.
func decrement(old uint32, k bucket.ID) uint32 {
	if next := old&^mark - 1; next > k {
		return next | mark
	}
	return k
}

// lowered records a decrement of v from old to next: v joins the queue
// if it reached k, or the touched list if this was its first decrement
// and it is still above k.
func (p *peeler) lowered(v graph.Vertex, old, next uint32) {
	if next&mark == 0 {
		p.queue = append(p.queue, v)
	} else if old&mark == 0 {
		p.touched = append(p.touched, v)
		p.pre = append(p.pre, old)
	}
}

// rebucket clears the marks this worker set and, for each vertex still
// above k, emits its move from its pre-round D to its D; a vertex whose
// mark is already clear reached k and was peeled or handed back.
// GetBucket only reads the structure, so workers run this side by side.
func (p *peeler) rebucket(r *round) {
	for j, v := range p.touched {
		dv := r.d[v]
		if dv&mark == 0 {
			continue
		}
		dv &^= mark
		r.d[v] = dv
		if dest := r.b.GetBucket(p.pre[j], dv); dest != bucket.None {
			p.ids = append(p.ids, v)
			p.dests = append(p.dests, dest)
		}
	}
}

// CorenessLigra is the work-inefficient frontier-based algorithm used
// by bucket-less frameworks: for each core value k it scans *all*
// remaining vertices to seed the frontier (the O(k_max·n) term), then
// cascades removals within k as in the bucketed algorithm.
func CorenessLigra(g graph.Graph) Result {
	requireSymmetric(g)
	n := g.NumVertices()
	res := Result{Coreness: make([]uint32, n)}
	if n == 0 {
		return res
	}
	d := make([]uint32, n)
	alive := make([]uint32, n) // 1 = alive; uint32 for atomic-free phase writes
	parallel.For(n, parallel.DefaultGrain, func(v int) {
		d[v] = uint32(g.OutDegree(graph.Vertex(v)))
		alive[v] = 1
	})
	// Each round's output is the next round's frontier, so the cascade
	// alternates two destinations: the one being read is never the one
	// being written.
	var k uint32
	var cascade [2]ligra.Tagged[struct{}]
	// A peeled vertex's d is frozen at its coreness, at most k, and
	// every live vertex at or below k is in the round's frontier, so
	// d[v] > k is alive[v] == 1: the round's condition reads d alone.
	wasAlive := func(v graph.Vertex) bool { return alive[v] == 1 }
	// Vertices dropping to <= k cascade within this core value.
	update := func(v graph.Vertex, removed uint32) (struct{}, bool) {
		newD := max(d[v]-removed, k)
		d[v] = newD
		return struct{}{}, newD <= k
	}
	finished := 0
	for ; finished < n; k++ {
		// The work-inefficient step: scan every vertex to find the ones
		// at or below the current core value.
		res.VerticesScanned += int64(n)
		ids := parallel.PackIndices(n, func(v int) bool {
			return alive[v] == 1 && d[v] <= k
		})
		for len(ids) > 0 {
			res.Rounds++
			finished += len(ids)
			parallel.For(len(ids), parallel.DefaultGrain, func(i int) {
				v := ids[i]
				res.Coreness[v] = k
				alive[v] = 0
				d[v] = k
			})
			frontier := ligra.Frontier(g, ids)
			res.EdgesTraversed += frontier.OutDegreeSum(g)
			live := ligra.Above{D: d, K: k}
			ligra.DebugCheckAbove("kcore", live, wasAlive)
			ids = ligra.EdgeMapSum(g, frontier, live, update, &cascade[res.Rounds%2]).IDs
		}
	}
	return res
}

// CorenessBZ is the sequential Batagelj–Zaversnik algorithm [4]: bucket
// sort vertices by degree, then repeatedly delete a minimum-degree
// vertex, moving each affected neighbor down one bucket via the classic
// swap-with-bucket-head trick. O(m + n) work.
func CorenessBZ(g graph.Graph) []uint32 {
	requireSymmetric(g)
	n := g.NumVertices()
	deg := make([]uint32, n)
	md := uint32(0)
	for v := 0; v < n; v++ {
		deg[v] = uint32(g.OutDegree(graph.Vertex(v)))
		if deg[v] > md {
			md = deg[v]
		}
	}
	// bin[d] = start index (in vert) of the block of vertices with
	// current degree d; vert is sorted by current degree; pos[v] is v's
	// index in vert.
	bin := make([]uint32, md+2)
	for v := 0; v < n; v++ {
		bin[deg[v]+1]++
	}
	for i := 1; i < len(bin); i++ {
		bin[i] += bin[i-1]
	}
	vert := make([]uint32, n)
	pos := make([]uint32, n)
	fill := append([]uint32(nil), bin...)
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = uint32(v)
		fill[deg[v]]++
	}
	core := make([]uint32, n)
	var buf graph.AdjBuf
	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = deg[v]
		nbrs, _ := g.OutAdj(v, &buf)
		for _, u := range nbrs {
			if deg[u] > deg[v] {
				du := deg[u]
				pu := pos[u]
				// Swap u with the first vertex of its bucket, then
				// shrink the bucket from the left.
				pw := bin[du]
				wv := vert[pw]
				if u != wv {
					pos[u], pos[wv] = pw, pu
					vert[pu], vert[pw] = wv, u
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return core
}

// MaxCoreness returns k_max, the largest core number.
func MaxCoreness(coreness []uint32) uint32 {
	if len(coreness) == 0 {
		return 0
	}
	return parallel.Max(len(coreness), 0, func(i int) uint32 { return coreness[i] })
}
