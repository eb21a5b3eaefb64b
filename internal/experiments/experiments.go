// Package experiments reproduces every table and figure of the paper's
// evaluation (§3.4 and §5) on synthetic stand-ins for its graph suite.
// Each exported method of Suite regenerates one artifact:
//
//	Table1   — empirical work-efficiency counters backing Table 1's
//	           asymptotic bounds
//	Table2   — the graph inventory (n, m, ρ, ...) in the role of Table 2
//	Table3   — running times of every implementation at 1 thread and at
//	           all threads, with speedups
//	Figure1  — bucket-structure throughput vs. identifiers/round, plus
//	           application points
//	Figure2..Figure5 — running time vs. thread count per application
//	Ablations — the §3.3 and Ligra+ design-choice measurements
//
// The cmd/experiments binary and the root-level benchmarks both drive
// this package; EXPERIMENTS.md records one full run.
package experiments

import (
	"fmt"
	"io"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/obs"
)

// Scale selects input sizes. Tests use Small; the shipped numbers use
// Medium or Large.
type Scale int

const (
	// Small finishes the whole suite in seconds (CI-sized).
	Small Scale = iota
	// Medium is the default for cmd/experiments.
	Medium
	// Large approaches what a laptop holds comfortably.
	Large
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return Small, fmt.Errorf("experiments: unknown scale %q (want small|medium|large)", s)
}

// Suite carries the experiment configuration.
type Suite struct {
	// W receives the rendered tables and series.
	W io.Writer
	// Scale selects input sizes.
	Scale Scale
	// Reps is the repetition count for medians (default 3).
	Reps int
	// Seed makes all workloads reproducible.
	Seed uint64
	// Rec, when non-nil, receives one trace span per experiment so a
	// whole-suite run can be inspected in a trace viewer. The timed
	// algorithm executions themselves stay uninstrumented — a recorder
	// inside the measured region would perturb the numbers.
	Rec *obs.Recorder
}

// run1 executes one experiment under a trace span.
func (s *Suite) run1(name string, f func()) {
	sp := s.Rec.StartSpan("experiments." + name)
	f()
	sp.End()
}

func (s *Suite) reps() int {
	if s.Reps < 1 {
		return 3
	}
	return s.Reps
}

func (s *Suite) seed() uint64 {
	if s.Seed == 0 {
		return 2017 // SPAA '17
	}
	return s.Seed
}

// NamedGraph is one input of the evaluation suite, playing the role of
// one of the paper's Table 2 graphs.
type NamedGraph struct {
	Name string
	// Role names the paper input this graph stands in for.
	Role string
	G    *graph.CSR
}

// sizes returns (n, m) targets for the social-style graphs.
func (s *Suite) sizes() (int, int) {
	switch s.Scale {
	case Small:
		return 1 << 10, 1 << 13
	case Large:
		return 1 << 16, 1 << 20
	default:
		return 1 << 13, 1 << 17
	}
}

// Graphs builds the undirected inventory (the k-core / wBFS / scaling
// inputs). Graphs are rebuilt per call so experiments cannot leak
// state into each other through packed adjacency.
func (s *Suite) Graphs() []NamedGraph {
	n, m := s.sizes()
	seed := s.seed()
	return []NamedGraph{
		{Name: "rmat-dense", Role: "com-Orkut (dense social)", G: gen.RMAT(n/2, m, true, seed)},
		{Name: "rmat", Role: "Twitter-Sym (skewed social)", G: gen.RMAT(n, m, true, seed+1)},
		{Name: "powerlaw", Role: "Friendster (power law)", G: gen.ChungLu(n, m, 2.3, true, seed+2)},
		{Name: "random", Role: "Hyperlink-Host (uniform)", G: gen.ErdosRenyi(n, m/2, true, seed+3)},
		{Name: "road", Role: "road-like (high diameter)", G: s.roadGraph()},
	}
}

func (s *Suite) roadGraph() *graph.CSR {
	switch s.Scale {
	case Small:
		return gen.Grid2D(32, 32)
	case Large:
		return gen.Grid2D(512, 512)
	default:
		return gen.Grid2D(128, 128)
	}
}

// scalingGraphs returns the three inputs used by the Figure 2–5 thread
// sweeps (the paper uses Friendster, Hyperlink2012-Host-Sym and
// Twitter-Sym).
func (s *Suite) scalingGraphs() []NamedGraph {
	gs := s.Graphs()
	return []NamedGraph{gs[1], gs[2], gs[4]}
}

// coverInstance builds the set-cover input.
func (s *Suite) coverInstance() gen.SetCoverInstance {
	n, _ := s.sizes()
	return gen.SetCover(n/2, 4*n, 4, s.seed()+9)
}

// section prints a titled separator.
func (s *Suite) section(title string) {
	fmt.Fprintf(s.W, "\n== %s ==\n\n", title)
}

// RunAll regenerates every artifact in paper order.
func (s *Suite) RunAll() {
	s.run1("table2", s.Table2)
	s.run1("fig1", s.Figure1)
	s.run1("table1", s.Table1)
	s.run1("table3", s.Table3)
	s.run1("fig2", s.Figure2)
	s.run1("fig3", s.Figure3)
	s.run1("fig4", s.Figure4)
	s.run1("fig5", s.Figure5)
	s.run1("ablations", s.Ablations)
	s.run1("extensions", s.Extensions)
}

// Run dispatches a single experiment by id ("table1", "fig3", ...).
func (s *Suite) Run(id string) error {
	switch id {
	case "all":
		s.RunAll()
	case "table1":
		s.run1(id, s.Table1)
	case "table2":
		s.run1(id, s.Table2)
	case "table3":
		s.run1(id, s.Table3)
	case "fig1":
		s.run1(id, s.Figure1)
	case "fig2":
		s.run1(id, s.Figure2)
	case "fig3":
		s.run1(id, s.Figure3)
	case "fig4":
		s.run1(id, s.Figure4)
	case "fig5":
		s.run1(id, s.Figure5)
	case "ablations":
		s.run1(id, s.Ablations)
	case "extensions":
		s.run1(id, s.Extensions)
	default:
		return fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return nil
}

// IDs lists the experiment ids Run accepts.
func IDs() []string {
	return []string{"all", "table1", "table2", "table3",
		"fig1", "fig2", "fig3", "fig4", "fig5", "ablations", "extensions"}
}
