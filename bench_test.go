// Benchmarks regenerating every table and figure of the paper's
// evaluation, one family per artifact:
//
//	BenchmarkTable3*   — the per-application/implementation timings
//	BenchmarkFig1*     — the §3.4 bucket microbenchmark series
//	BenchmarkFig2*     — k-core scaling inputs
//	BenchmarkFig3*     — wBFS (weights [1,log n))
//	BenchmarkFig4*     — ∆-stepping (weights [1,1e5))
//	BenchmarkFig5*     — set cover
//	BenchmarkAblation* — the §3.3/§4.2 design-choice ablations
//	BenchmarkTable1* / BenchmarkTable2* — the counter/stat pipelines
//
// Run `go test -bench=. -benchmem` or, for the formatted paper-style
// output (thread sweeps, speedup columns), `go run ./cmd/experiments`.
package julienne

import (
	"testing"

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
	"julienne/internal/microbench"
	"julienne/internal/obs"
)

// benchGraph is the social-style input shared by the Table 3 and
// Figure 2–4 benches (the role of Twitter-Sym at laptop scale).
func benchGraph() *graph.CSR { return gen.RMAT(1<<13, 1<<17, true, 2017) }

// benchRoad is the high-diameter input (Figure 4's regime).
func benchRoad() *graph.CSR { return gen.Grid2D(128, 128) }

// --- Table 2: input statistics --------------------------------------------

func BenchmarkTable2GraphStats(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kcore.Rho(g)
	}
}

// --- Table 1: work-efficiency counter pipelines ----------------------------

func BenchmarkTable1KCoreWorkCounters(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := kcore.Coreness(g, kcore.Options{})
		if res.VerticesScanned != int64(g.NumVertices()) {
			b.Fatal("work-efficiency invariant broken")
		}
	}
}

// --- Table 3: k-core -------------------------------------------------------

func BenchmarkTable3KCoreJulienne(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(g, kcore.Options{})
	}
}

// BenchmarkKCoreRecorderOff/On measure telemetry overhead: Off is the
// uninstrumented path (nil Recorder — must match BenchmarkTable3KCoreJulienne),
// On pays counters, round metrics and one span per peeling round.
func BenchmarkKCoreRecorderOff(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(g, kcore.Options{Recorder: nil})
	}
}

func BenchmarkKCoreRecorderOn(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(g, kcore.Options{Recorder: obs.NewRecorder()})
	}
}

func BenchmarkTable3KCoreLigra(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.CorenessLigra(g)
	}
}

func BenchmarkTable3KCoreBZSequential(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.CorenessBZ(g)
	}
}

// --- Table 3: wBFS (weights [1, log n)) ------------------------------------

func BenchmarkTable3WBFSJulienne(b *testing.B) {
	g := gen.LogWeights(benchGraph(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.WBFS(g, 0, sssp.Options{})
	}
}

func BenchmarkTable3WBFSBellmanFord(b *testing.B) {
	g := gen.LogWeights(benchGraph(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.BellmanFord(g, 0)
	}
}

func BenchmarkTable3WBFSGapBins(b *testing.B) {
	g := gen.LogWeights(benchGraph(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.DeltaSteppingBins(g, 0, 1)
	}
}

func BenchmarkTable3WBFSDijkstraSequential(b *testing.B) {
	g := gen.LogWeights(benchGraph(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.DijkstraHeap(g, 0)
	}
}

// --- Table 3: ∆-stepping (weights [1, 1e5)) --------------------------------

const benchDelta = 32768

func BenchmarkTable3DeltaJulienne(b *testing.B) {
	g := gen.HeavyWeights(benchGraph(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.DeltaStepping(g, 0, benchDelta, sssp.Options{})
	}
}

func BenchmarkTable3DeltaBellmanFord(b *testing.B) {
	g := gen.HeavyWeights(benchGraph(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.BellmanFord(g, 0)
	}
}

func BenchmarkTable3DeltaGapBins(b *testing.B) {
	g := gen.HeavyWeights(benchGraph(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.DeltaSteppingBins(g, 0, benchDelta)
	}
}

func BenchmarkTable3DeltaDijkstraSequential(b *testing.B) {
	g := gen.HeavyWeights(benchGraph(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.DijkstraHeap(g, 0)
	}
}

// --- Table 3: set cover -----------------------------------------------------

func BenchmarkTable3SetCoverJulienne(b *testing.B) {
	inst := gen.SetCover(1<<12, 1<<15, 4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setcover.Approx(inst.Graph, inst.Sets, setcover.Options{})
	}
}

func BenchmarkTable3SetCoverPBBS(b *testing.B) {
	inst := gen.SetCover(1<<12, 1<<15, 4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setcover.ApproxPBBS(inst.Graph, inst.Sets, setcover.Options{})
	}
}

func BenchmarkTable3SetCoverGreedySequential(b *testing.B) {
	inst := gen.SetCover(1<<12, 1<<15, 4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setcover.Greedy(inst.Graph, inst.Sets)
	}
}

// --- Figure 1: bucket-structure microbenchmark ------------------------------

func benchFig1(b *testing.B, buckets int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := microbench.Run(microbench.Config{
			Identifiers: 1 << 17, Buckets: buckets, Seed: 7,
		})
		b.ReportMetric(p.Throughput, "ids/s")
		b.ReportMetric(p.AvgPerRound, "ids/round")
	}
}

func BenchmarkFig1Buckets128(b *testing.B)  { benchFig1(b, 128) }
func BenchmarkFig1Buckets256(b *testing.B)  { benchFig1(b, 256) }
func BenchmarkFig1Buckets512(b *testing.B)  { benchFig1(b, 512) }
func BenchmarkFig1Buckets1024(b *testing.B) { benchFig1(b, 1024) }

// --- Figures 2–5: scaling inputs (thread sweeps live in cmd/experiments;
// these measure the same workloads at the current GOMAXPROCS) -------------

func BenchmarkFig2KCorePowerlaw(b *testing.B) {
	g := gen.ChungLu(1<<13, 1<<17, 2.3, true, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(g, kcore.Options{})
	}
}

func BenchmarkFig3WBFSRoad(b *testing.B) {
	g := gen.LogWeights(benchRoad(), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.WBFS(g, 0, sssp.Options{})
	}
}

func BenchmarkFig4DeltaRoad(b *testing.B) {
	g := gen.HeavyWeights(benchRoad(), 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.DeltaStepping(g, 0, benchDelta, sssp.Options{})
	}
}

func BenchmarkFig5SetCover(b *testing.B) {
	inst := gen.SetCover(1<<11, 1<<14, 4, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setcover.Approx(inst.Graph, inst.Sets, setcover.Options{})
	}
}

// --- Ablations (§3.3 and §4.2 design choices) -------------------------------

func benchAblationRange(b *testing.B, nB int) {
	g := benchGraph()
	opt := kcore.Options{Buckets: bucket.Options{OpenBuckets: nB}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(g, opt)
	}
}

func BenchmarkAblationRangeSize16(b *testing.B)   { benchAblationRange(b, 16) }
func BenchmarkAblationRangeSize128(b *testing.B)  { benchAblationRange(b, 128) }
func BenchmarkAblationRangeSize1024(b *testing.B) { benchAblationRange(b, 1024) }
func BenchmarkAblationRangeSizeExact(b *testing.B) {
	benchAblationRange(b, 1<<20) // effectively no overflow bucket
}

func BenchmarkAblationCompressionCSR(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(g, kcore.Options{})
	}
}

func BenchmarkAblationCompressionCompressed(b *testing.B) {
	c := compress.FromCSR(benchGraph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(c, kcore.Options{})
	}
}

// --- Extensions: edge-identifier bucketing --------------------------------

func BenchmarkExtensionKTruss(b *testing.B) {
	g := gen.RMAT(1<<11, 1<<15, true, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truss.Trussness(g)
	}
}

func BenchmarkExtensionTriangleCount(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		triangles.Count(g)
	}
}

func BenchmarkExtensionDensestCharikar(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		densest.Charikar(g)
	}
}
