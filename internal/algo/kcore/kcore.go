// Package kcore computes coreness values (the k-core decomposition) of
// an undirected graph. It contains three implementations:
//
//   - Coreness: the paper's work-efficient bucketed peeling algorithm
//     (Algorithm 1, §4.1) — the first work-efficient parallel k-core
//     algorithm with non-trivial parallelism: O(m + n) expected work
//     and O(ρ log n) depth w.h.p., where ρ is the graph's peeling
//     complexity (Theorem 4.1). A round too small to fork for peels
//     its level on the caller instead of cascading through the bucket
//     structure (vertical granularity control, arXiv 2502.08042).
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
	// Ctx, when non-nil, is checked once per peeling round; if it is
	// done the run stops and Result.Err reports a *obs.Canceled with
	// partial progress. Nil keeps today's zero-overhead behavior.
	Ctx context.Context

	// There is deliberately no bucket-fusion knob here (compare
	// sssp.Options.Fusion): peeling must process buckets in exact order
	// because removing a vertex can move its neighbors *down* into the
	// bucket currently being peeled — fusing rounds would peel vertices
	// against stale induced degrees and change the computed coreness.
}

// Result carries the coreness values along with the measurements the
// experiment harness reports.
type Result struct {
	// Coreness[v] is the coreness (maximum core number) of v.
	Coreness []uint32
	// Rounds is the number of bucket rounds. Coreness peels a level on
	// the caller while its work stays below the fork cut-off, so it
	// takes between one round per distinct coreness value (every round
	// at P=1) and the peeling complexity ρ of §4.1; CorenessLigra takes
	// exactly ρ.
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
// (Algorithm 1). The graph must be undirected.
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
	parallel.For(n, parallel.DefaultGrain, func(v int) {
		d[v] = uint32(g.OutDegree(graph.Vertex(v)))
	})
	lp := bucket.Loop{Algo: "kcore", Recorder: opt.Recorder, Ctx: opt.Ctx}
	b := lp.New(n, func(i uint32) bucket.ID { return d[i] }, bucket.Increasing, opt.Buckets)

	// The round's one primitive, its destination and the updateBuckets
	// feed are built once: a round reads its bucket from k and allocates
	// nothing (the bucket structure's own chunks aside).
	var k bucket.ID
	var moved ligra.Tagged[bucket.Dest]
	// Update(v, edgesRemoved) of Algorithm 1: lower D[v], clamping at k
	// so vertices falling below the current core are placed into the
	// current bucket and peeled this round. The round's condition
	// admitted v, and D only changes here, after the counting: D[v] > k.
	update := func(v graph.Vertex, removed uint32) (bucket.Dest, bool) {
		induced := d[v]
		newD := max(induced-removed, k)
		d[v] = newD
		dest := b.GetBucket(induced, newD)
		return dest, dest != bucket.None
	}
	feed := func(j int) (uint32, bucket.Dest) { return moved.IDs[j], moved.Vals[j] }
	loc := local{seen: make([]uint64, (n+63)/64)}
	loc.feed = func(j int) (uint32, bucket.Dest) { return loc.ids[j], loc.dests[j] }
	var dbg debugState
	dbg.init(n)

	finished := 0
	res.Rounds, res.Err = lp.Run(b, func(bkt, _ bucket.ID, ids []uint32) (int64, bool) {
		k = bkt
		// All vertices in the bucket have coreness k (their D values
		// already equal k by the bucket-liveness invariant); their
		// removal decrements neighbors' induced degrees.
		frontier := ligra.Frontier(g, ids)
		edges := frontier.OutDegreeSum(g)
		peeled := len(ids)
		if parallel.WorkersFor(int64(len(ids))+edges) == 1 {
			// Too little work to fork for: peel level k on the caller
			// (vertical granularity control, arXiv 2502.08042).
			vs, e, rest := loc.peel(g, d, k, ids, b)
			dbg.checkLocal(d, k, vs, rest == 0)
			peeled, edges = len(vs), e
		} else {
			dbg.peel(ids)
			// edgeMapSum counts removed edges per still-live neighbor
			// and emits the ones that change bucket (lines 16–17).
			// Still live is D[v] > k: a peeled vertex's D is frozen at
			// its coreness, at most k.
			ligra.EdgeMapSum(g, frontier, ligra.Above{D: d, K: k}, update, &moved)
			b.UpdateBuckets(moved.Size(), feed)
		}
		finished += peeled
		res.VerticesScanned += int64(peeled)
		res.EdgesTraversed += edges
		return edges, finished == n
	})
	res.BucketStats = b.Stats()
	return res
}

// local is the caller-side arm of a k-core round, taken when the round
// is below the fork cut-off. Its buffers live for the run, so a round
// allocates nothing once they have grown.
type local struct {
	queue   []uint32 // the round's peel order: the extracted ids, then every vertex they drop to k
	touched []uint32 // the live neighbors whose D the round lowered
	pre     []uint32 // pre[j] is touched[j]'s D before the round
	seen    []uint64 // bitset: v is in touched and not yet peeled
	ids     []uint32 // the rebucketing batch, its destinations
	dests   []bucket.Dest
	feed    func(j int) (uint32, bucket.Dest)
	buf     graph.AdjBuf
}

// peel removes level k's vertices one at a time: each dequeued vertex
// lowers its live neighbors' D by one, and a neighbor reaching k joins
// the queue and is peeled in the same round instead of going back
// through UpdateBuckets and NextBucket. Before each vertex it checks
// the work peeled so far against the fork cut-off: once that much work
// would fork, the rest of the queue (all at D == k) is handed back into
// bucket k, so the next round, which may fork, takes it. At P=1 the cut-
// off never forks and a round exhausts its level. Only the touched
// vertices still unpeeled are rebucketed, each from its pre-round D, in
// one UpdateBuckets call whose destinations are materialised because
// UpdateBuckets evaluates its feed twice.
//
// peel returns the vertices it peeled (a prefix of its queue, valid
// until the next call), the edges they traversed, and how many
// vertices it handed back.
func (l *local) peel(g graph.Graph, d []uint32, k bucket.ID, ids []uint32, b *bucket.Par) (peeled []uint32, edges int64, rest int) {
	l.queue = append(l.queue[:0], ids...)
	l.touched, l.pre = l.touched[:0], l.pre[:0]
	// The extracted ids alone are below the cut-off, so they are all
	// peeled before the check can stop the walk. At P=1 no work forks:
	// the check is skipped, and with it a GOMAXPROCS read per vertex.
	capped := parallel.Procs() > 1
	i := 0
	for ; i < len(l.queue); i++ {
		if capped && parallel.WorkersFor(int64(i)+edges) > 1 {
			break
		}
		u := l.queue[i]
		l.seen[u/64] &^= 1 << (u % 64)
		nbrs, _ := g.OutAdj(u, &l.buf)
		edges += int64(len(nbrs))
		for _, v := range nbrs {
			if d[v] <= k {
				continue // peeled, or queued to be
			}
			if l.seen[v/64]&(1<<(v%64)) == 0 {
				l.seen[v/64] |= 1 << (v % 64)
				l.touched = append(l.touched, v)
				l.pre = append(l.pre, d[v])
			}
			if d[v]--; d[v] == k {
				l.queue = append(l.queue, v)
			}
		}
	}
	l.ids, l.dests = l.ids[:0], l.dests[:0]
	for j, v := range l.touched {
		if l.seen[v/64]&(1<<(v%64)) == 0 {
			continue // peeled above
		}
		l.seen[v/64] &^= 1 << (v % 64)
		if dest := b.GetBucket(l.pre[j], d[v]); dest != bucket.None {
			l.ids = append(l.ids, v)
			l.dests = append(l.dests, dest)
		}
	}
	b.UpdateBuckets(len(l.ids), l.feed)
	return l.queue[:i], edges, len(l.queue) - i
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
