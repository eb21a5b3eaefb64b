package julienne

import (
	"julienne/internal/algo/densest"
	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/graphio"
	"julienne/internal/ligra"
	"julienne/internal/obs"
	"julienne/internal/oracle"
	"julienne/internal/parallel"
)

// --- graph types ------------------------------------------------------------

// Vertex identifies a vertex: a dense integer in [0, NumVertices).
type Vertex = graph.Vertex

// Weight is a non-negative integral edge weight.
type Weight = graph.Weight

// Edge is one directed edge of an edge list.
type Edge = graph.Edge

// Graph is the read interface all algorithms accept; *CSR implements
// it.
type Graph = graph.Graph

// AdjBuf is the reusable decode buffer Graph.OutAdj and InAdj take.
type AdjBuf = graph.AdjBuf

// CSR is the mutable compressed-sparse-row graph.
type CSR = graph.CSR

// BuildOptions controls FromEdges.
type BuildOptions = graph.BuildOptions

// FromEdges builds a CSR graph over n vertices from an edge list.
func FromEdges(n int, edges []Edge, opt BuildOptions) *CSR {
	return graph.FromEdges(n, edges, opt)
}

// --- generators and I/O -------------------------------------------------------

// RMAT samples an RMAT (Graph500-parameter) graph with n vertices and
// ~m edges; symmetric selects undirected output.
func RMAT(n, m int, symmetric bool, seed uint64) *CSR {
	return gen.RMAT(n, m, symmetric, seed)
}

// Grid2D returns the rows×cols mesh (a road-network stand-in).
func Grid2D(rows, cols int) *CSR { return gen.Grid2D(rows, cols) }

// LogWeights copies g with weights uniform in [1, log2 n) — the
// paper's wBFS weighting.
func LogWeights(g *CSR, seed uint64) *CSR { return gen.LogWeights(g, seed) }

// HeavyWeights copies g with weights uniform in [1, 10^5) — the
// paper's ∆-stepping weighting.
func HeavyWeights(g *CSR, seed uint64) *CSR { return gen.HeavyWeights(g, seed) }

// SetCoverInstance is a random bipartite set-cover input.
type SetCoverInstance = gen.SetCoverInstance

// NewSetCoverInstance generates a random instance in which every
// element is coverable.
func NewSetCoverInstance(sets, elements, avgCover int, seed uint64) SetCoverInstance {
	return gen.SetCover(sets, elements, avgCover, seed)
}

// SaveGraph writes g to path (.adj/.txt = Ligra text, else binary).
func SaveGraph(path string, g *CSR) error { return graphio.SaveFile(path, g) }

// LoadGraph reads a graph saved by SaveGraph; symmetric applies to
// text files, which do not record it.
func LoadGraph(path string, symmetric bool) (*CSR, error) {
	return graphio.LoadFile(path, symmetric)
}

// --- bucketing (the paper's core contribution, §3) ---------------------------

// BucketID identifies a logical bucket.
type BucketID = bucket.ID

// NilBucket is the nullbkt sentinel ("not in any bucket").
const NilBucket = bucket.Nil

// BucketOrder selects increasing or decreasing traversal.
type BucketOrder = bucket.Order

// Bucket traversal orders.
const (
	IncreasingBuckets = bucket.Increasing
	DecreasingBuckets = bucket.Decreasing
)

// BucketDest is the opaque destination type of GetBucket/UpdateBuckets.
type BucketDest = bucket.Dest

// NoBucketDest means "no update required".
const NoBucketDest = bucket.None

// Buckets is the bucketing interface (§3.1): NextBucket, GetBucket,
// UpdateBuckets, Stats. Every NextBucket call extracts exactly one
// bucket.
type Buckets = bucket.Structure

// BucketOptions configures the parallel bucket structure (open-range
// size nB, telemetry recorder).
type BucketOptions = bucket.Options

// NewBuckets creates the parallel work-efficient bucket structure over
// identifiers [0, n): d maps each identifier to its current bucket
// (NilBucket when absent) and must stay in sync with the caller's
// state; order selects the traversal direction.
func NewBuckets(n int, d func(uint32) BucketID, order BucketOrder, opt BucketOptions) Buckets {
	return bucket.New(n, d, order, opt)
}

// BucketStats counts bucket-structure traffic.
type BucketStats = bucket.Stats

// --- Ligra layer (§2.1) -------------------------------------------------------

// VertexSubset is a subset of the vertices, stored sparse or dense.
type VertexSubset = ligra.VertexSubset

// EdgeMapOptions tunes EdgeMap (force push, suppress output).
type EdgeMapOptions = ligra.EdgeMapOptions

// SparseSubset wraps a list of distinct vertex ids as a subset.
func SparseSubset(n int, ids []Vertex) VertexSubset { return ligra.FromSparse(n, ids) }

// AllVertices returns the full universe [0, n).
func AllVertices(n int) VertexSubset { return ligra.All(n) }

// EdgeMap applies F over edges out of u (direction-optimized); a nil c
// admits every target. See ligra.EdgeMap for the full contract.
func EdgeMap(g Graph, u VertexSubset, c func(Vertex) bool,
	f func(src, dst Vertex, w Weight) bool, opt EdgeMapOptions) VertexSubset {
	return ligra.EdgeMap(g, u, c, f, opt)
}

// --- observability ------------------------------------------------------------

// Recorder is the opt-in telemetry sink: named atomic counters and
// gauges, Chrome trace-event spans (chrome://tracing / Perfetto), and
// per-round metrics with observer hooks. A nil *Recorder is valid and
// fully inert, so telemetry costs a nil check when disabled.
type Recorder = obs.Recorder

// NewRecorder creates an empty Recorder whose trace clock starts now.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// RoundMetrics is one recorded algorithm round: frontier size, bucket
// extracted/moved/skipped deltas, edgeMap direction, and duration.
type RoundMetrics = obs.RoundMetrics

// --- failure semantics (DESIGN.md §9) ----------------------------------------

// ErrCanceled is the sentinel wrapped by every cancellation error;
// test with errors.Is(res.Err, julienne.ErrCanceled).
var ErrCanceled = obs.ErrCanceled

// Canceled reports a cooperatively-canceled run: which algorithm, how
// many rounds completed, and the underlying cause (context.Canceled,
// context.DeadlineExceeded, or a custom context cause).
type Canceled = obs.Canceled

// PanicError wraps a panic raised inside a parallel region (user
// callback or substrate). The substrate recovers worker panics, joins
// all workers, releases pooled scratch, and re-raises a single
// *PanicError on the calling goroutine; Value is the original panic
// value and Stack the stack of the panicking goroutine.
type PanicError = parallel.PanicError

// --- applications -------------------------------------------------------------
//
// One entry per kernel; the zero Options is the plain call.

// KCoreOptions configures KCoreWithOptions: bucket tuning, an optional
// Recorder and an optional cancellation context.
type KCoreOptions = kcore.Options

// KCoreResult carries coreness values and measurements.
type KCoreResult = kcore.Result

// KCoreWithOptions computes coreness values with the paper's
// work-efficient bucketed peeling (Theorem 4.1: O(m+n) expected work,
// O(ρ log n) depth). The graph must be undirected. Set
// Options.Recorder to capture per-round frontier sizes, bucket traffic
// and trace spans.
func KCoreWithOptions(g Graph, opt KCoreOptions) KCoreResult {
	return kcore.Coreness(g, opt)
}

// KCoreBZ is the sequential Batagelj–Zaversnik algorithm.
func KCoreBZ(g Graph) []uint32 { return kcore.CorenessBZ(g) }

// SSSPOptions configures the bucketed SSSP entry points (bucket tuning,
// an optional Recorder and cancellation context).
type SSSPOptions = sssp.Options

// SSSPResult carries distances and measurements; Dist[v] is
// UnreachableDist for unreachable vertices.
type SSSPResult = sssp.Result

// UnreachableDist is the distance reported for unreachable vertices.
const UnreachableDist = sssp.Unreachable

// DeltaSteppingWithOptions runs bucketed ∆-stepping (Algorithm 2) from
// src with bucket width delta.
func DeltaSteppingWithOptions(g Graph, src Vertex, delta int64, opt SSSPOptions) SSSPResult {
	return sssp.DeltaStepping(g, src, delta, opt)
}

// WBFSWithOptions runs weighted BFS from src: ∆-stepping with ∆ = 1
// (Theorem 4.2).
func WBFSWithOptions(g Graph, src Vertex, opt SSSPOptions) SSSPResult {
	return sssp.WBFS(g, src, opt)
}

// Dijkstra is the sequential binary-heap solver.
func Dijkstra(g Graph, src Vertex) SSSPResult { return sssp.DijkstraHeap(g, src) }

// SetCoverResult carries the chosen cover and measurements.
type SetCoverResult = setcover.Result

// SetCoverOptions configures the approximation (ε, bucket options).
type SetCoverOptions = setcover.Options

// ApproxSetCover runs the bucketed (1+ε)H_n-approximation (Algorithm
// 3) on the instance whose sets are vertices [0, numSets) of g.
func ApproxSetCover(g *CSR, numSets int, opt SetCoverOptions) SetCoverResult {
	return setcover.Approx(g, numSets, opt)
}

// DensestResult describes an approximately densest subgraph.
type DensestResult = densest.Result

// DensestOptions configures the coreness peel the densest subgraph
// comes from: an optional Recorder and cancellation context.
type DensestOptions = densest.Options

// DensestSubgraphWithOptions returns the densest k-core, a
// 2-approximation of the densest subgraph: the bucketed coreness peel
// (CorenessWithOptions) and one O(n + m) pass over its values. It is
// the natural fifth bucketing-based application beyond the paper's
// four. The graph must be undirected.
func DensestSubgraphWithOptions(g Graph, opt DensestOptions) DensestResult {
	return densest.Find(g, opt)
}

// --- verification (sequential oracles) ---------------------------------------

// The Verify* helpers check algorithm outputs against the deliberately
// simple sequential reference implementations in internal/oracle
// (linear-scan Matula–Beck, array Dijkstra). They share no machinery
// with the parallel algorithms, run in O(n²)-ish time, and are meant
// for tests and small-graph sanity checks, not production-size inputs.

// VerifyKCore checks coreness values against the sequential peeling
// oracle. The graph must be undirected.
func VerifyKCore(g Graph, coreness []uint32) error {
	return oracle.VerifyCoreness(g, coreness)
}

// VerifySSSP checks shortest-path distances from src (UnreachableDist
// for unreachable vertices) against the array-Dijkstra oracle.
func VerifySSSP(g Graph, src Vertex, dist []int64) error {
	return oracle.VerifyDistances(g, src, dist)
}
