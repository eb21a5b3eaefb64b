package julienne

import (
	"io"

	"julienne/internal/algo/bfs"
	"julienne/internal/algo/cc"
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

// Graph is the read interface all algorithms accept; *CSR and
// *Compressed implement it.
type Graph = graph.Graph

// AdjBuf is the reusable decode buffer Graph.OutAdj and InAdj take.
type AdjBuf = graph.AdjBuf

// CSR is the mutable compressed-sparse-row graph.
type CSR = graph.CSR

// Compressed is the Ligra+-style byte-compressed immutable graph.
type Compressed = compress.Graph

// BuildOptions controls FromEdges.
type BuildOptions = graph.BuildOptions

// NilVertex is the "no vertex" sentinel.
const NilVertex = graph.NilVertex

// FromEdges builds a CSR graph over n vertices from an edge list.
func FromEdges(n int, edges []Edge, opt BuildOptions) *CSR {
	return graph.FromEdges(n, edges, opt)
}

// DefaultBuild matches the paper's graph assumptions: simple graphs,
// no self-loops, no duplicate edges.
var DefaultBuild = graph.DefaultBuild

// Symmetrized returns the undirected version of g.
func Symmetrized(g *CSR) *CSR { return graph.Symmetrized(g) }

// ValidateGraph checks CSR structural invariants.
func ValidateGraph(g *CSR) error { return graph.Validate(g) }

// Compress converts a CSR graph to the byte-compressed representation.
func Compress(g *CSR) *Compressed { return compress.FromCSR(g) }

// --- generators and I/O -------------------------------------------------------

// RMAT samples an RMAT (Graph500-parameter) graph with n vertices and
// ~m edges; symmetric selects undirected output.
func RMAT(n, m int, symmetric bool, seed uint64) *CSR {
	return gen.RMAT(n, m, symmetric, seed)
}

// ErdosRenyi samples a uniform random graph.
func ErdosRenyi(n, m int, symmetric bool, seed uint64) *CSR {
	return gen.ErdosRenyi(n, m, symmetric, seed)
}

// ChungLu samples a power-law graph with exponent beta.
func ChungLu(n, m int, beta float64, symmetric bool, seed uint64) *CSR {
	return gen.ChungLu(n, m, beta, symmetric, seed)
}

// Grid2D returns the rows×cols mesh (a road-network stand-in).
func Grid2D(rows, cols int) *CSR { return gen.Grid2D(rows, cols) }

// RandomRegular returns a graph where every vertex draws d random
// out-neighbors.
func RandomRegular(n, d int, symmetric bool, seed uint64) *CSR {
	return gen.RandomRegular(n, d, symmetric, seed)
}

// UniformWeights copies g with integer weights uniform in [lo, hi).
func UniformWeights(g *CSR, lo, hi Weight, seed uint64) *CSR {
	return gen.UniformWeights(g, lo, hi, seed)
}

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

// WriteGraphText / ReadGraphText expose the Ligra text format over
// arbitrary readers and writers.
func WriteGraphText(w io.Writer, g *CSR) error { return graphio.WriteText(w, g) }

// ReadGraphText parses a Ligra adjacency stream.
func ReadGraphText(r io.Reader, symmetric bool) (*CSR, error) {
	return graphio.ReadText(r, symmetric)
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
// UpdateBuckets, Stats — plus bucket fusion (NextBucketFused and
// DrainLazy, DESIGN.md §11) for monotone-priority algorithms; peeling
// algorithms that need exact bucket order call only NextBucket.
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

// NewSequentialBuckets creates the §3.2 sequential reference
// implementation (the differential-testing oracle and single-thread
// baseline).
func NewSequentialBuckets(n int, d func(uint32) BucketID, order BucketOrder) Buckets {
	return bucket.NewSeq(n, d, order)
}

// BucketStats counts bucket-structure traffic.
type BucketStats = bucket.Stats

// --- Ligra layer (§2.1) -------------------------------------------------------

// VertexSubset is a subset of the vertices, stored sparse or dense.
type VertexSubset = ligra.VertexSubset

// EdgeMapOptions tunes EdgeMap (force push, suppress output).
type EdgeMapOptions = ligra.EdgeMapOptions

// EmptySubset returns the empty subset of a universe of size n.
func EmptySubset(n int) VertexSubset { return ligra.Empty(n) }

// SingleSubset returns the subset {v}.
func SingleSubset(n int, v Vertex) VertexSubset { return ligra.Single(n, v) }

// SparseSubset wraps a list of distinct vertex ids as a subset.
func SparseSubset(n int, ids []Vertex) VertexSubset { return ligra.FromSparse(n, ids) }

// DenseSubset wraps a membership array as a subset.
func DenseSubset(n int, member []bool) VertexSubset { return ligra.FromDense(n, member) }

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

// RoundObserver receives every recorded round synchronously.
type RoundObserver = obs.RoundObserver

// TraceEvent is one Chrome trace-event entry, as written by
// Recorder.WriteTrace.
type TraceEvent = obs.TraceEvent

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

// KCoreOptions configures KCoreWithOptions (bucket tuning plus an
// optional Recorder).
type KCoreOptions = kcore.Options

// SSSPOptions configures the bucketed SSSP entry points (bucket tuning,
// the Fusion switch, and an optional Recorder).
type SSSPOptions = sssp.Options

// KCoreWithOptions is KCore with full options: set Options.Recorder to
// capture per-round frontier sizes, bucket traffic, and trace spans.
func KCoreWithOptions(g Graph, opt KCoreOptions) KCoreResult {
	return kcore.Coreness(g, opt)
}

// DeltaSteppingWithOptions is DeltaStepping with full options,
// including an optional Recorder.
func DeltaSteppingWithOptions(g Graph, src Vertex, delta int64, opt SSSPOptions) SSSPResult {
	return sssp.DeltaStepping(g, src, delta, opt)
}

// WBFSWithOptions is WBFS with full options, including an optional
// Recorder.
func WBFSWithOptions(g Graph, src Vertex, opt SSSPOptions) SSSPResult {
	return sssp.WBFS(g, src, opt)
}

// --- applications -------------------------------------------------------------

// KCoreResult carries coreness values and measurements.
type KCoreResult = kcore.Result

// KCore computes coreness values with the paper's work-efficient
// bucketed peeling (Theorem 4.1: O(m+n) expected work, O(ρ log n)
// depth). The graph must be undirected.
func KCore(g Graph) []uint32 { return kcore.Coreness(g, kcore.Options{}).Coreness }

// KCoreFull is KCore returning the full result (rounds, bucket stats).
func KCoreFull(g Graph, opt BucketOptions) KCoreResult {
	return kcore.Coreness(g, kcore.Options{Buckets: opt})
}

// KCoreLigra is the work-inefficient frontier-based baseline.
func KCoreLigra(g Graph) KCoreResult { return kcore.CorenessLigra(g) }

// KCoreBZ is the sequential Batagelj–Zaversnik algorithm.
func KCoreBZ(g Graph) []uint32 { return kcore.CorenessBZ(g) }

// Rho returns the peeling complexity ρ of g (§4.1).
func Rho(g Graph) int64 { return kcore.Rho(g) }

// SSSPResult carries distances and measurements; Dist[v] is
// UnreachableDist for unreachable vertices.
type SSSPResult = sssp.Result

// UnreachableDist is the distance reported for unreachable vertices.
const UnreachableDist = sssp.Unreachable

// WBFS runs weighted BFS (∆-stepping with ∆=1; Theorem 4.2) from src.
func WBFS(g Graph, src Vertex) []int64 {
	return sssp.WBFS(g, src, sssp.Options{}).Dist
}

// DeltaStepping runs bucketed ∆-stepping (Algorithm 2) from src.
func DeltaStepping(g Graph, src Vertex, delta int64) []int64 {
	return sssp.DeltaStepping(g, src, delta, sssp.Options{}).Dist
}

// DeltaSteppingFull exposes the full result and bucket options.
func DeltaSteppingFull(g Graph, src Vertex, delta int64, opt BucketOptions) SSSPResult {
	return sssp.DeltaStepping(g, src, delta, sssp.Options{Buckets: opt})
}

// DeltaSteppingBins is the GAP-style thread-local-bin ∆-stepping.
func DeltaSteppingBins(g Graph, src Vertex, delta int64) SSSPResult {
	return sssp.DeltaSteppingBins(g, src, delta)
}

// BellmanFord is the frontier-based SSSP baseline.
func BellmanFord(g Graph, src Vertex) SSSPResult { return sssp.BellmanFord(g, src) }

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

// SetCoverPBBS is the carry-over (work-inefficient) baseline.
func SetCoverPBBS(g *CSR, numSets int, opt SetCoverOptions) SetCoverResult {
	return setcover.ApproxPBBS(g, numSets, opt)
}

// SetCoverGreedy is the exact sequential greedy algorithm.
func SetCoverGreedy(g *CSR, numSets int) SetCoverResult {
	return setcover.Greedy(g, numSets)
}

// ValidateCover checks that the chosen sets cover every coverable
// element of the instance.
func ValidateCover(g Graph, numSets int, inCover []bool) error {
	return setcover.Validate(g, numSets, inCover)
}

// BFSResult carries BFS levels and parents.
type BFSResult = bfs.Result

// BFS runs a direction-optimized breadth-first search.
func BFS(g Graph, src Vertex) BFSResult { return bfs.BFS(g, src) }

// Eccentricity returns the largest BFS level from src.
func Eccentricity(g Graph, src Vertex) int32 { return bfs.Eccentricity(g, src) }

// WeightedSetCoverResult extends SetCoverResult with the cover's cost.
type WeightedSetCoverResult = setcover.WeightedResult

// ApproxWeightedSetCover is the weighted variant of ApproxSetCover:
// sets carry positive costs and are bucketed by uncovered elements per
// unit cost (§4.3's weighted case).
func ApproxWeightedSetCover(g *CSR, numSets int, costs []float64, opt SetCoverOptions) WeightedSetCoverResult {
	return setcover.ApproxWeighted(g, numSets, costs, opt)
}

// GreedyWeightedSetCover is the exact sequential weighted greedy.
func GreedyWeightedSetCover(g Graph, numSets int, costs []float64) WeightedSetCoverResult {
	return setcover.GreedyWeighted(g, numSets, costs)
}

// ApproxSetCoverOn runs the bucketed approximation over any packable
// graph (CSR or Compressed), consuming it; use g.Clone() to preserve
// the input.
func ApproxSetCoverOn(g Packer, numSets int, opt SetCoverOptions) SetCoverResult {
	return setcover.ApproxOn(g, numSets, opt)
}

// Packer is a graph supporting in-place out-edge packing.
type Packer = graph.Packer

// ConnectedComponents labels every vertex with the smallest vertex id
// in its component (label-propagation, the frontier-based algorithm of
// §1). The graph must be undirected.
func ConnectedComponents(g Graph) []Vertex { return cc.Components(g) }

// CountComponents counts distinct components given canonical labels.
func CountComponents(labels []Vertex) int { return cc.Count(labels) }

// CoreSubgraph is the induced subgraph of a particular k-core.
type CoreSubgraph = kcore.CoreSubgraph

// ExtractCore returns the k-core(s) of g given coreness values: the
// induced subgraph on vertices with coreness ≥ k, with its connected
// components identified (§4.1, footnote 1).
func ExtractCore(g Graph, coreness []uint32, k uint32) CoreSubgraph {
	return kcore.ExtractCore(g, coreness, k)
}

// VertexMap applies F to every member of u and returns the members for
// which F was true; F may side-effect and runs once per member (§2.1).
func VertexMap(u VertexSubset, f func(v Vertex) bool) VertexSubset {
	return ligra.VertexMap(u, f)
}

// VertexFilter returns the members of u satisfying the pure predicate p.
func VertexFilter(u VertexSubset, p func(v Vertex) bool) VertexSubset {
	return ligra.VertexFilter(u, p)
}

// DensestResult describes an approximately densest subgraph.
type DensestResult = densest.Result

// DensestOptions configures the densest-subgraph peels (cancellation
// context and deadline).
type DensestOptions = densest.Options

// DensestSubgraphWithOptions is DensestSubgraph with cancellation
// support.
func DensestSubgraphWithOptions(g Graph, opt DensestOptions) DensestResult {
	return densest.CharikarWithOptions(g, opt)
}

// DensestSubgraphBatchWithOptions is DensestSubgraphBatch with
// cancellation support.
func DensestSubgraphBatchWithOptions(g Graph, eps float64, opt DensestOptions) DensestResult {
	return densest.PeelBatchWithOptions(g, eps, opt)
}

// DensestSubgraph runs the exact greedy 2-approximation (Charikar's
// peel) work-efficiently on the bucket structure — the natural fifth
// bucketing-based application beyond the paper's four.
func DensestSubgraph(g Graph) DensestResult { return densest.Charikar(g) }

// DensestSubgraphBatch is the Bahmani et al. batch peel: a (2+2ε)-
// approximation in O(log n) fully parallel rounds.
func DensestSubgraphBatch(g Graph, eps float64) DensestResult {
	return densest.PeelBatch(g, eps)
}

// SubgraphDensity computes |E(S)|/|S| for a vertex set.
func SubgraphDensity(g Graph, vertices []Vertex) float64 {
	return densest.Density(g, vertices)
}

// CountTriangles returns the number of triangles in an undirected
// graph (degree-ordered intersection counting).
func CountTriangles(g Graph) int64 { return triangles.Count(g) }

// TrianglesPerVertex returns each vertex's triangle participation.
func TrianglesPerVertex(g Graph) []int64 { return triangles.PerVertex(g) }

// ClusteringCoefficient returns the global transitivity of g.
func ClusteringCoefficient(g Graph) float64 {
	return triangles.GlobalClusteringCoefficient(g)
}

// TrussResult is the edge-indexed k-truss decomposition.
type TrussResult = truss.Result

// KTruss computes the trussness of every edge with bucketed peeling
// over *edge* identifiers — §3.1's "identifiers represent other
// objects such as edges" made concrete.
func KTruss(g *CSR) TrussResult { return truss.Trussness(g) }

// --- verification (sequential oracles) ---------------------------------------

// The Verify* helpers check algorithm outputs against the deliberately
// simple sequential reference implementations in internal/oracle
// (linear-scan Matula–Beck, array Dijkstra, queue BFS, flood-fill
// components, rescan greedy set cover). They share no machinery with
// the parallel algorithms, run in O(n²)-ish time, and are meant for
// tests and small-graph sanity checks, not production-size inputs.

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

// VerifyBFS checks BFS levels exactly and, when parent is non-nil, the
// parent array structurally (each parent one level closer over a real
// edge).
func VerifyBFS(g Graph, src Vertex, level []int32, parent []Vertex) error {
	return oracle.VerifyBFS(g, src, level, parent)
}

// VerifyComponents checks canonical min-label component labels. The
// graph must be undirected.
func VerifyComponents(g Graph, labels []Vertex) error {
	return oracle.VerifyComponents(g, labels)
}

// VerifySetCover checks that inCover is a valid cover and that its size
// is within the (1+eps)·H_d approximation bound of the greedy oracle in
// both directions.
func VerifySetCover(g Graph, numSets int, inCover []bool, eps float64) error {
	return oracle.VerifyCover(g, numSets, inCover, eps)
}

// BucketDebugEnabled reports whether this binary was built with the
// julienne_debug tag, which compiles invariant assertions into the
// bucket structure and the Ligra layer.
const BucketDebugEnabled = bucket.DebugEnabled

// WriteEdgeList / ReadEdgeList expose the SNAP-style edge-list format.
func WriteEdgeList(w io.Writer, g *CSR) error { return graphio.WriteEdgeList(w, g) }

// ReadEdgeList parses a SNAP-style edge list ("u v" or "u v w" lines,
// '#' comments).
func ReadEdgeList(r io.Reader, opt BuildOptions) (*CSR, error) {
	return graphio.ReadEdgeList(r, opt)
}
