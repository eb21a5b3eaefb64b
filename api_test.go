package julienne

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/compress"
	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/oracle"
)

func TestQuickstartFlow(t *testing.T) {
	g := RMAT(1<<10, 8000, true, 42)
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	cores := KCoreWithOptions(g, KCoreOptions{}).Coreness
	if len(cores) != g.NumVertices() {
		t.Fatal("coreness length")
	}
	want := KCoreBZ(g)
	for v := range cores {
		if cores[v] != want[v] {
			t.Fatalf("coreness[%d] mismatch", v)
		}
	}
	wg := LogWeights(g, 1)
	dist := WBFSWithOptions(wg, 0, SSSPOptions{}).Dist
	ref := Dijkstra(wg, 0)
	for v := range dist {
		if dist[v] != ref.Dist[v] {
			t.Fatalf("dist[%d] mismatch", v)
		}
	}
}

func TestBucketsFacade(t *testing.T) {
	d := []BucketID{2, 0, 1, NilBucket}
	get := func(i uint32) BucketID { return d[i] }
	for _, b := range []Buckets{
		NewBuckets(4, get, IncreasingBuckets, BucketOptions{}),
		bucket.NewSeq(4, get, IncreasingBuckets),
	} {
		var order []BucketID
		for {
			id, ids := b.NextBucket()
			if id == NilBucket {
				break
			}
			order = append(order, id)
			if len(ids) != 1 {
				t.Fatalf("bucket %d size %d", id, len(ids))
			}
		}
		if len(order) != 3 || order[0] != 0 || order[2] != 2 {
			t.Fatalf("order %v", order)
		}
		if b.Stats().Extracted != 3 {
			t.Fatal("stats")
		}
	}
}

func TestEdgeMapFacade(t *testing.T) {
	g := Grid2D(4, 4)
	visited := make([]uint32, 16)
	visited[0] = 1
	frontier := SparseSubset(16, []Vertex{0})
	count := 1
	for !frontier.IsEmpty() {
		frontier = EdgeMap(g, frontier,
			func(v Vertex) bool { return atomic.LoadUint32(&visited[v]) == 0 },
			func(s, d Vertex, w Weight) bool {
				return atomic.CompareAndSwapUint32(&visited[d], 0, 1)
			}, EdgeMapOptions{NoDense: true})
		count += frontier.Size()
	}
	if count != 16 {
		t.Fatalf("BFS via facade covered %d vertices", count)
	}
}

func TestSetCoverFacade(t *testing.T) {
	inst := NewSetCoverInstance(50, 400, 3, 9)
	res := ApproxSetCover(inst.Graph, inst.Sets, SetCoverOptions{})
	if err := oracle.VerifyCover(inst.Graph, inst.Sets, res.InCover, 0.01); err != nil {
		t.Fatal(err)
	}
	chosen := 0
	for _, in := range res.InCover {
		if in {
			chosen++
		}
	}
	if chosen == 0 || chosen != res.CoverSize {
		t.Fatalf("CoverSize %d, %d sets marked", res.CoverSize, chosen)
	}
}

// TestCompressedFacade runs a facade kernel on the byte-compressed
// representation, which implements Graph like *CSR does.
func TestCompressedFacade(t *testing.T) {
	g := RMAT(1<<9, 4000, true, 5)
	c := compress.FromCSR(g)
	a := KCoreWithOptions(g, KCoreOptions{}).Coreness
	b := KCoreWithOptions(c, KCoreOptions{}).Coreness
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("compressed graph changed coreness")
		}
	}
}

// TestGraphIOFacade round-trips a weighted graph through both file
// formats SaveGraph picks by extension.
func TestGraphIOFacade(t *testing.T) {
	g := LogWeights(Grid2D(6, 6), 3)
	dir := t.TempDir()
	for _, name := range []string{"g.bin", "g.adj"} {
		path := filepath.Join(dir, name)
		if err := SaveGraph(path, g); err != nil {
			t.Fatal(err)
		}
		got, err := LoadGraph(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEdges() != g.NumEdges() || !got.Weighted() {
			t.Fatalf("%s: round trip lost data", name)
		}
	}
}

// TestMiscFacade checks that bucket tuning reaches the kernels through
// their one entry, and the subset constructors' sizes.
func TestMiscFacade(t *testing.T) {
	g := Grid2D(8, 8)
	tuned := BucketOptions{OpenBuckets: 4}
	kr := KCoreWithOptions(g, KCoreOptions{Buckets: tuned})
	if kr.Rounds == 0 || !slices.Equal(kr.Coreness, KCoreBZ(g)) {
		t.Fatalf("k-core with %d open buckets: %d rounds", tuned.OpenBuckets, kr.Rounds)
	}
	w := HeavyWeights(g, 1)
	full := DeltaSteppingWithOptions(w, 0, 32768, SSSPOptions{Buckets: tuned})
	if full.Rounds == 0 || !slices.Equal(full.Dist, Dijkstra(w, 0).Dist) {
		t.Fatalf("∆-stepping with %d open buckets: %d rounds", tuned.OpenBuckets, full.Rounds)
	}
	sub := SparseSubset(4, []Vertex{1, 2})
	if sub.Size() != 2 || AllVertices(4).Size() != 4 {
		t.Fatal("subset constructors")
	}
}

func TestObservabilityFacade(t *testing.T) {
	g := RMAT(1<<10, 8000, true, 42)

	rec := NewRecorder()
	var observed []RoundMetrics
	rec.OnRound(func(m RoundMetrics) { observed = append(observed, m) })
	res := KCoreWithOptions(g, KCoreOptions{Recorder: rec})

	if int64(len(observed)) != res.Rounds {
		t.Fatalf("observed %d rounds, result says %d", len(observed), res.Rounds)
	}
	if rec.Counter("bucket.extracted") != res.BucketStats.Extracted {
		t.Fatalf("counter extracted=%d, stats=%d",
			rec.Counter("bucket.extracted"), res.BucketStats.Extracted)
	}
	var frontierSum int64
	for _, m := range observed {
		if m.Algo != "kcore" {
			t.Fatalf("round algo %q", m.Algo)
		}
		frontierSum += int64(m.FrontierSize)
	}
	if frontierSum != res.BucketStats.Extracted {
		t.Fatalf("frontier sum %d != extracted %d", frontierSum, res.BucketStats.Extracted)
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	spans := 0
	for _, ev := range tf.TraceEvents {
		if ev.Phase == "X" && ev.Name == "kcore.round" {
			spans++
		}
	}
	if int64(spans) != res.Rounds {
		t.Fatalf("trace has %d kcore.round spans, want %d", spans, res.Rounds)
	}

	// The instrumented run must compute the same answer as the plain one.
	plain := KCoreWithOptions(g, KCoreOptions{}).Coreness
	for v := range plain {
		if res.Coreness[v] != plain[v] {
			t.Fatalf("coreness[%d] differs under instrumentation", v)
		}
	}

	wg := LogWeights(g, 1)
	rec2 := NewRecorder()
	sres := DeltaSteppingWithOptions(wg, 0, 4, SSSPOptions{Recorder: rec2})
	if rec2.NumRounds() == 0 || int64(rec2.NumRounds()) != sres.Rounds {
		t.Fatalf("sssp rounds recorded=%d, result=%d", rec2.NumRounds(), sres.Rounds)
	}
	ref := Dijkstra(wg, 0)
	for v := range sres.Dist {
		if sres.Dist[v] != ref.Dist[v] {
			t.Fatalf("dist[%d] differs under instrumentation", v)
		}
	}
	if wres := WBFSWithOptions(wg, 0, SSSPOptions{Recorder: NewRecorder()}); wres.Dist[0] != 0 {
		t.Fatal("wbfs with recorder")
	}

	// Nil recorder through the public options must be a no-op.
	if nr := KCoreWithOptions(g, KCoreOptions{}); nr.Rounds != res.Rounds {
		t.Fatal("uninstrumented run diverged")
	}
}

func TestVerifyFacade(t *testing.T) {
	g := RMAT(64, 256, true, 7)

	coreness := KCoreWithOptions(g, KCoreOptions{}).Coreness
	if err := VerifyKCore(g, coreness); err != nil {
		t.Fatalf("VerifyKCore rejected a correct result: %v", err)
	}
	bad := append([]uint32(nil), coreness...)
	bad[0] += 5
	if err := VerifyKCore(g, bad); err == nil {
		t.Fatal("VerifyKCore accepted corrupted coreness")
	}

	wg := LogWeights(g, 3)
	dist := DeltaSteppingWithOptions(wg, 0, 4, SSSPOptions{}).Dist
	if err := VerifySSSP(wg, 0, dist); err != nil {
		t.Fatalf("VerifySSSP rejected a correct result: %v", err)
	}
	badDist := append([]int64(nil), dist...)
	badDist[len(badDist)-1]++
	if err := VerifySSSP(wg, 0, badDist); err == nil {
		t.Fatal("VerifySSSP accepted corrupted distances")
	}
}
