// Package julienne is a Go implementation of the Julienne framework
// for parallel graph algorithms using work-efficient bucketing
// (Dhulipala, Blelloch and Shun, SPAA 2017).
//
// Julienne extends the Ligra shared-memory graph-processing model with
// a bucketing structure that maintains a dynamic mapping from integer
// identifiers to ordered buckets and supports extracting the next
// non-empty bucket and moving batches of identifiers between buckets,
// all work-efficiently. On top of it the package provides the paper's
// four bucketing-based applications — k-core (coreness), ∆-stepping,
// weighted BFS and (1+ε)-approximate set cover — together with every
// baseline its evaluation compares against, graph generators, Ligra+
// style byte-compressed graphs, and one measuring harness whose
// committed reports every table and figure of the paper is read from.
//
// # Quick start
//
//	g := julienne.RMAT(1<<16, 1<<20, true, 42) // undirected social-style graph
//	cores := julienne.KCore(g)                 // work-efficient coreness
//	wg := julienne.LogWeights(g, 1)            // weights in [1, log n)
//	dist := julienne.WBFS(wg, 0)               // weighted BFS from vertex 0
//
// # Architecture
//
// The facade re-exports the stable surface of the internal packages:
//
//   - internal/bucket — the bucketing structure (the paper's §3)
//   - internal/ligra — vertexSubsets, edgeMap and friends (§2.1)
//   - internal/graph, internal/compress — CSR and compressed graphs
//   - internal/gen, internal/graphio — workload generators and I/O
//   - internal/algo/... — the four applications and their baselines
//   - internal/bench — the workload registry, the one timing method,
//     the committed BENCH_*.json reports and their table views
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for a full
// paper-vs-measured comparison.
package julienne
