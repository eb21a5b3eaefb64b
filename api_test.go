package julienne

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	g := RMAT(1<<10, 8000, true, 42)
	if err := ValidateGraph(g); err != nil {
		t.Fatal(err)
	}
	cores := KCore(g)
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
	dist := WBFS(wg, 0)
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
		NewSequentialBuckets(4, get, IncreasingBuckets),
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
	frontier := SingleSubset(16, 0)
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
	if err := ValidateCover(inst.Graph, inst.Sets, res.InCover); err != nil {
		t.Fatal(err)
	}
	greedy := SetCoverGreedy(inst.Graph, inst.Sets)
	pbbs := SetCoverPBBS(inst.Graph, inst.Sets, SetCoverOptions{})
	if greedy.CoverSize == 0 || pbbs.CoverSize != res.CoverSize {
		t.Fatalf("cover sizes: approx=%d pbbs=%d greedy=%d",
			res.CoverSize, pbbs.CoverSize, greedy.CoverSize)
	}
}

func TestCompressedFacade(t *testing.T) {
	g := RMAT(1<<9, 4000, true, 5)
	c := Compress(g)
	a := KCore(g)
	b := KCore(c)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("compressed graph changed coreness")
		}
	}
}

func TestGraphIOFacade(t *testing.T) {
	g := LogWeights(Grid2D(6, 6), 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() || !got.Weighted() {
		t.Fatal("round trip lost data")
	}
	var buf bytes.Buffer
	if err := WriteGraphText(&buf, g); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadGraphText(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if got2.NumEdges() != g.NumEdges() {
		t.Fatal("text round trip lost edges")
	}
}

func TestMiscFacade(t *testing.T) {
	g := Grid2D(8, 8)
	if Eccentricity(g, 0) != 14 {
		t.Fatalf("ecc=%d", Eccentricity(g, 0))
	}
	res := BFS(g, 0)
	if res.Level[63] != 14 {
		t.Fatal("BFS level")
	}
	if Rho(g) == 0 {
		t.Fatal("rho")
	}
	w := HeavyWeights(g, 1)
	a := DeltaStepping(w, 0, 32768)
	b := DeltaSteppingBins(w, 0, 32768)
	d := BellmanFord(w, 0)
	for v := range a {
		if a[v] != b.Dist[v] || a[v] != d.Dist[v] {
			t.Fatal("SSSP mismatch")
		}
	}
	dir := Symmetrized(FromEdges(3, []Edge{{U: 0, V: 1}}, DefaultBuild))
	if !dir.Symmetric() {
		t.Fatal("Symmetrized")
	}
	kr := KCoreFull(g, BucketOptions{OpenBuckets: 4})
	if kr.Rounds == 0 {
		t.Fatal("KCoreFull")
	}
	if KCoreLigra(g).Coreness[0] != kr.Coreness[0] {
		t.Fatal("ligra kcore")
	}
	full := DeltaSteppingFull(w, 0, 32768, BucketOptions{})
	if full.Rounds == 0 {
		t.Fatal("DeltaSteppingFull")
	}
	sub := SparseSubset(4, []Vertex{1, 2})
	if sub.Size() != 2 || EmptySubset(4).Size() != 0 || AllVertices(4).Size() != 4 {
		t.Fatal("subset constructors")
	}
	dn := DenseSubset(3, []bool{true, false, true})
	if dn.Size() != 2 {
		t.Fatal("DenseSubset")
	}
	rr := RandomRegular(100, 4, false, 1)
	if rr.NumVertices() != 100 {
		t.Fatal("RandomRegular")
	}
	er := ErdosRenyi(100, 300, true, 1)
	if er.NumEdges() == 0 {
		t.Fatal("ErdosRenyi")
	}
	cl := ChungLu(100, 500, 2.5, true, 1)
	if cl.NumEdges() == 0 {
		t.Fatal("ChungLu")
	}
	uw := UniformWeights(g, 1, 5, 1)
	if !uw.Weighted() {
		t.Fatal("UniformWeights")
	}
}

func TestNewFacadeFeatures(t *testing.T) {
	// Connected components.
	g := FromEdges(6, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}, BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	labels := ConnectedComponents(g)
	if CountComponents(labels) != 4 {
		t.Fatalf("components=%d want 4", CountComponents(labels))
	}
	// k-core extraction.
	k5 := Grid2D(5, 5)
	cores := KCore(k5)
	sub := ExtractCore(k5, cores, 2)
	if sub.Graph.NumVertices() == 0 {
		t.Fatal("2-core of grid empty")
	}
	// Weighted set cover.
	inst := NewSetCoverInstance(60, 400, 3, 5)
	costs := make([]float64, inst.Sets)
	for i := range costs {
		costs[i] = 1 + float64(i%5)
	}
	res := ApproxWeightedSetCover(inst.Graph, inst.Sets, costs, SetCoverOptions{})
	if err := ValidateCover(inst.Graph, inst.Sets, res.InCover); err != nil {
		t.Fatal(err)
	}
	greedy := GreedyWeightedSetCover(inst.Graph, inst.Sets, costs)
	if greedy.Cost <= 0 || res.Cost <= 0 {
		t.Fatal("costs not populated")
	}
	// Set cover over a compressed instance through the facade.
	c := Compress(inst.Graph)
	onC := ApproxSetCoverOn(c.Clone(), inst.Sets, SetCoverOptions{})
	if err := ValidateCover(inst.Graph, inst.Sets, onC.InCover); err != nil {
		t.Fatal(err)
	}
	// VertexMap / VertexFilter.
	vm := VertexMap(SparseSubset(5, []Vertex{1, 2, 3}), func(v Vertex) bool { return v != 2 })
	if vm.Size() != 2 {
		t.Fatal("VertexMap facade")
	}
	vf := VertexFilter(AllVertices(5), func(v Vertex) bool { return v < 2 })
	if vf.Size() != 2 {
		t.Fatal("VertexFilter facade")
	}
	// Edge-list IO.
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, BuildOptions{DropSelfLoops: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("edge list round trip")
	}
}

func TestTrianglesAndTrussFacade(t *testing.T) {
	// K4 plus a pendant: 4 triangles; K4 edges have trussness 4.
	edges := []Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 3, V: 4},
	}
	g := FromEdges(5, edges, BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	if CountTriangles(g) != 4 {
		t.Fatalf("triangles=%d want 4", CountTriangles(g))
	}
	pv := TrianglesPerVertex(g)
	if pv[0] != 3 || pv[4] != 0 {
		t.Fatalf("per-vertex %v", pv)
	}
	if cc := ClusteringCoefficient(g); cc <= 0 || cc > 1 {
		t.Fatalf("clustering %v", cc)
	}
	tr := KTruss(g)
	if tr.MaxTrussness() != 4 {
		t.Fatalf("max trussness %d want 4", tr.MaxTrussness())
	}
	// The pendant edge has trussness 2.
	found := false
	for i := range tr.Trussness {
		if tr.EdgeV[i] == 4 {
			found = true
			if tr.Trussness[i] != 2 {
				t.Fatalf("pendant trussness %d", tr.Trussness[i])
			}
		}
	}
	if !found {
		t.Fatal("pendant edge missing from decomposition")
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
		TraceEvents []TraceEvent `json:"traceEvents"`
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
	plain := KCore(g)
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
	g := Symmetrized(ErdosRenyi(40, 120, true, 7))

	coreness := KCore(g)
	if err := VerifyKCore(g, coreness); err != nil {
		t.Fatalf("VerifyKCore rejected a correct result: %v", err)
	}
	bad := append([]uint32(nil), coreness...)
	if len(bad) > 0 {
		bad[0] += 5
		if err := VerifyKCore(g, bad); err == nil {
			t.Fatal("VerifyKCore accepted corrupted coreness")
		}
	}

	wg := UniformWeights(g, 1, 8, 3)
	dist := DeltaStepping(wg, 0, 4)
	if err := VerifySSSP(wg, 0, dist); err != nil {
		t.Fatalf("VerifySSSP rejected a correct result: %v", err)
	}
	badDist := append([]int64(nil), dist...)
	badDist[len(badDist)-1]++
	if err := VerifySSSP(wg, 0, badDist); err == nil {
		t.Fatal("VerifySSSP accepted corrupted distances")
	}

	bres := BFS(g, 0)
	if err := VerifyBFS(g, 0, bres.Level, bres.Parent); err != nil {
		t.Fatalf("VerifyBFS rejected a correct result: %v", err)
	}
	if err := VerifyBFS(g, 0, bres.Level, nil); err != nil {
		t.Fatalf("VerifyBFS without parents: %v", err)
	}

	labels := ConnectedComponents(g)
	if err := VerifyComponents(g, labels); err != nil {
		t.Fatalf("VerifyComponents rejected a correct result: %v", err)
	}

	inst := NewSetCoverInstance(12, 60, 3, 11)
	cover := ApproxSetCover(inst.Graph, inst.Sets, SetCoverOptions{})
	if err := VerifySetCover(inst.Graph, inst.Sets, cover.InCover, 0.01); err != nil {
		t.Fatalf("VerifySetCover rejected a correct result: %v", err)
	}
	none := make([]bool, inst.Sets)
	if err := VerifySetCover(inst.Graph, inst.Sets, none, 0.01); err == nil {
		t.Fatal("VerifySetCover accepted an empty cover")
	}

	// BucketDebugEnabled mirrors the build tag; in either state the
	// constant must be usable from the public API.
	_ = BucketDebugEnabled
}
