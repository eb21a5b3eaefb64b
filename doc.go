// Package julienne is a Go implementation of the Julienne framework
// for parallel graph algorithms using work-efficient bucketing
// (Dhulipala, Blelloch and Shun, SPAA 2017).
//
// Julienne extends the Ligra shared-memory graph-processing model with
// a bucketing structure that maintains a dynamic mapping from integer
// identifiers to ordered buckets and supports extracting the next
// non-empty bucket and moving batches of identifiers between buckets,
// all work-efficiently. On top of it the package exports one entry per
// application of the paper — k-core (coreness), ∆-stepping, weighted
// BFS and (1+ε)-approximate set cover — plus densest subgraph (the
// densest k-core), the sequential references the gated benchmark
// checks against, graph generators and I/O, and the bucket and Ligra
// interfaces for writing new bucketed algorithms. The repository
// around it holds every baseline the paper's evaluation compares
// against and one measuring harness whose committed reports every
// table and figure is read from.
//
// # Quick start
//
// Each kernel is one call whose zero Options is the plain run:
//
//	g := julienne.RMAT(1<<10, 1<<13, true, 42) // undirected social-style graph
//	core := julienne.KCoreWithOptions(g, julienne.KCoreOptions{})
//	fmt.Println("max coreness", slices.Max(core.Coreness))
//
//	wg := julienne.LogWeights(g, 1) // weights in [1, log n)
//	wbfs := julienne.WBFSWithOptions(wg, 0, julienne.SSSPOptions{})
//	delta := julienne.DeltaSteppingWithOptions(wg, 0, 4, julienne.SSSPOptions{})
//	fmt.Println("wBFS = ∆-stepping:", slices.Equal(wbfs.Dist, delta.Dist))
//
//	inst := julienne.NewSetCoverInstance(1<<8, 1<<11, 4, 7)
//	cover := julienne.ApproxSetCover(inst.Graph, inst.Sets, julienne.SetCoverOptions{})
//	fmt.Println("sets chosen", cover.CoverSize)
//	// Output:
//	// max coreness 25
//	// wBFS = ∆-stepping: true
//	// sets chosen 209
//
// # Architecture
//
// The facade exports what the gated benchmark, README and the examples
// call; the system lives in the internal packages:
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
