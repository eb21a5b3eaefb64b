package experiments

import (
	"fmt"

	"julienne/internal/algo/bfs"
	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/harness"
)

// deltaForScale mirrors the paper's tuned ∆ = 32768 for heavy weights,
// shrunk proportionally at smaller scales so multiple annuli exist.
func (s *Suite) delta() int64 {
	switch s.Scale {
	case Small:
		return 8192
	case Large:
		return 32768
	default:
		return 32768
	}
}

// Table2 prints the graph inventory: the role of the paper's Table 2
// (n, m and the peeling complexity ρ per undirected input), extended
// with max degree, k_max and a source eccentricity.
func (s *Suite) Table2() {
	s.section("Table 2: graph inputs (synthetic stand-ins)")
	t := harness.NewTable("graph", "role", "n", "m", "rho", "maxdeg", "kmax", "ecc(0)")
	for _, ng := range s.Graphs() {
		res := kcore.Coreness(ng.G, kcore.Options{})
		ecc := bfs.Eccentricity(ng.G, 0)
		t.AddRow(ng.Name, ng.Role, ng.G.NumVertices(), ng.G.NumEdges(),
			res.Rounds, ng.G.MaxDegree(), kcore.MaxCoreness(res.Coreness), ecc)
	}
	inst := s.coverInstance()
	t.AddRow("setcover", "bipartite incidence", inst.Graph.NumVertices(),
		inst.Graph.NumEdges(), "-", inst.Graph.MaxDegree(), "-", "-")
	t.Render(s.W)
}

// Table1 prints the empirical work counters that back Table 1's
// asymptotic claims: the bucketed algorithms touch O(n + m) state
// while the frontier/scan baselines pay an extra multiplicative factor
// (k_max·n for k-core, rounds·m for Bellman-Ford, carried sets for
// PBBS set cover).
func (s *Suite) Table1() {
	s.section("Table 1 (empirical): work counters, bucketed vs baseline")
	t := harness.NewTable("problem", "graph", "metric", "julienne", "baseline", "baseline/julienne")
	ratio := func(a, b int64) string {
		if a == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", float64(b)/float64(a))
	}
	for _, ng := range s.Graphs() {
		eff := kcore.Coreness(ng.G, kcore.Options{})
		ineff := kcore.CorenessLigra(ng.G)
		t.AddRow("k-core", ng.Name, "vertices scanned",
			eff.VerticesScanned, ineff.VerticesScanned,
			ratio(eff.VerticesScanned, ineff.VerticesScanned))

		wg := gen.LogWeights(ng.G, s.seed()+100)
		wbfs := sssp.WBFS(wg, 0, sssp.Options{})
		bf := sssp.BellmanFord(wg, 0)
		t.AddRow("wBFS", ng.Name, "edges traversed",
			wbfs.EdgesTraversed, bf.EdgesTraversed,
			ratio(wbfs.EdgesTraversed, bf.EdgesTraversed))
	}
	inst := s.coverInstance()
	a := setcover.Approx(inst.Graph, inst.Sets, setcover.Options{})
	p := setcover.ApproxPBBS(inst.Graph, inst.Sets, setcover.Options{})
	t.AddRow("set cover", "setcover", "sets inspected",
		a.SetsInspected, p.SetsInspected, ratio(a.SetsInspected, p.SetsInspected))
	t.Render(s.W)
}

// row times a single implementation at 1 thread and at full threads.
type timing struct {
	name   string
	t1, tp harness.Sample
}

func (s *Suite) timeBoth(f func()) (harness.Sample, harness.Sample) {
	pts := harness.ThreadSweep(s.reps(), f)
	t1 := pts[0].Sample
	tp := pts[len(pts)-1].Sample
	return t1, tp
}

// Table3 reproduces the layout of the paper's Table 3: for every
// application, the running time of each implementation single-threaded
// (1), with all hardware threads (P), and the self-relative speedup.
// wBFS rows use weights in [1, log n); ∆-stepping rows use weights in
// [1, 10^5) with the tuned ∆.
func (s *Suite) Table3() {
	s.section("Table 3: running times per application and implementation")
	for _, ng := range s.Graphs() {
		fmt.Fprintf(s.W, "graph %s (n=%d, m=%d)\n", ng.Name, ng.G.NumVertices(), ng.G.NumEdges())
		t := harness.NewTable("application", "impl", "T(1)", "T(P)", "spread(P)", "speedup")

		g := ng.G
		var rows []timing
		add := func(name string, f func()) {
			t1, tp := s.timeBoth(f)
			rows = append(rows, timing{name, t1, tp})
		}
		add("k-core (Julienne)", func() { kcore.Coreness(g, kcore.Options{}) })
		add("k-core (Ligra)", func() { kcore.CorenessLigra(g) })
		add("k-core (BZ, seq)", func() { kcore.CorenessBZ(g) })
		for _, r := range rows {
			t.AddRow("k-core", r.name, r.t1, r.tp, r.tp.Spread(),
				harness.Speedup(r.t1.Median, r.tp.Median))
		}
		rows = rows[:0]

		wlog := gen.LogWeights(g, s.seed()+200)
		add("wBFS (Julienne)", func() { sssp.WBFS(wlog, 0, sssp.Options{}) })
		add("Bellman-Ford (Ligra)", func() { sssp.BellmanFord(wlog, 0) })
		add("wBFS (GAP bins)", func() { sssp.DeltaSteppingBins(wlog, 0, 1) })
		add("wBFS (DIMACS seq)", func() { sssp.DijkstraHeap(wlog, 0) })
		for _, r := range rows {
			t.AddRow("wBFS [1,log n)", r.name, r.t1, r.tp, r.tp.Spread(),
				harness.Speedup(r.t1.Median, r.tp.Median))
		}
		rows = rows[:0]

		wheavy := gen.HeavyWeights(g, s.seed()+300)
		delta := s.delta()
		add("d-step (Julienne)", func() { sssp.DeltaStepping(wheavy, 0, delta, sssp.Options{}) })
		add("Bellman-Ford (Ligra)", func() { sssp.BellmanFord(wheavy, 0) })
		add("d-step (GAP bins)", func() { sssp.DeltaSteppingBins(wheavy, 0, delta) })
		add("d-step (DIMACS seq)", func() { sssp.DijkstraHeap(wheavy, 0) })
		for _, r := range rows {
			t.AddRow("d-step [1,1e5)", r.name, r.t1, r.tp, r.tp.Spread(),
				harness.Speedup(r.t1.Median, r.tp.Median))
		}
		t.Render(s.W)
		fmt.Fprintln(s.W)
	}

	inst := s.coverInstance()
	fmt.Fprintf(s.W, "set cover instance (sets=%d, elements=%d, M=%d)\n",
		inst.Sets, inst.Elements, inst.Graph.NumEdges())
	t := harness.NewTable("application", "impl", "T(1)", "T(P)", "spread(P)", "speedup", "|cover|")
	a1, ap := s.timeBoth(func() { setcover.Approx(inst.Graph, inst.Sets, setcover.Options{}) })
	sizeA := setcover.Approx(inst.Graph, inst.Sets, setcover.Options{}).CoverSize
	t.AddRow("set cover (e=0.01)", "Julienne", a1, ap, ap.Spread(),
		harness.Speedup(a1.Median, ap.Median), sizeA)
	p1, pp := s.timeBoth(func() { setcover.ApproxPBBS(inst.Graph, inst.Sets, setcover.Options{}) })
	sizeP := setcover.ApproxPBBS(inst.Graph, inst.Sets, setcover.Options{}).CoverSize
	t.AddRow("set cover (e=0.01)", "PBBS", p1, pp, pp.Spread(),
		harness.Speedup(p1.Median, pp.Median), sizeP)
	g1, gp := s.timeBoth(func() { setcover.Greedy(inst.Graph, inst.Sets) })
	sizeG := setcover.Greedy(inst.Graph, inst.Sets).CoverSize
	t.AddRow("set cover (exact)", "greedy seq", g1, gp, gp.Spread(),
		harness.Speedup(g1.Median, gp.Median), sizeG)
	t.Render(s.W)
}

// graphForName is a test helper mapping inventory names.
func (s *Suite) graphForName(name string) *graph.CSR {
	for _, ng := range s.Graphs() {
		if ng.Name == name {
			return ng.G
		}
	}
	return nil
}
