// Package cli holds the graph flags cmd/julienne and cmd/served share:
// building or loading input graphs and applying weight distributions.
package cli

import (
	"flag"
	"fmt"
	"math"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/graphio"
)

// GraphFlags selects an input graph: either a file or a generator.
type GraphFlags struct {
	File      *string
	Gen       *string
	N         *int
	M         *int
	Rows      *int
	Cols      *int
	Seed      *uint64
	Symmetric *bool
	Weights   *string
}

// Register installs the graph flags on fs.
func Register(fs *flag.FlagSet) *GraphFlags {
	return &GraphFlags{
		File:      fs.String("file", "", "load graph from file (.adj/.txt = Ligra text, else binary)"),
		Gen:       fs.String("gen", "rmat", "generator: rmat|er|chunglu|grid|regular"),
		N:         fs.Int("n", 1<<14, "vertices (generators)"),
		M:         fs.Int("m", 1<<17, "edges (generators)"),
		Rows:      fs.Int("rows", 256, "grid rows"),
		Cols:      fs.Int("cols", 256, "grid cols"),
		Seed:      fs.Uint64("seed", 2017, "generator seed"),
		Symmetric: fs.Bool("symmetric", true, "generate/load as undirected"),
		Weights:   fs.String("weights", "", "weight distribution: ''|log|heavy|uniform:<lo>:<hi>"),
	}
}

// Build constructs the graph the flags describe. Every flag is checked
// before any generator runs, and an error names the flag at fault: the
// generators panic or loop forever on input outside their domain.
func (gf *GraphFlags) Build() (*graph.CSR, error) {
	var lo, hi graph.Weight
	if w := *gf.Weights; w != "" && w != "log" && w != "heavy" {
		if _, err := fmt.Sscanf(w, "uniform:%d:%d", &lo, &hi); err != nil || lo < 0 || hi <= lo {
			return nil, fmt.Errorf("bad -weights %q (want ''|log|heavy|uniform:<lo>:<hi> with 0 <= lo < hi)", w)
		}
	}
	g, err := gf.input()
	if err != nil {
		return nil, err
	}
	switch *gf.Weights {
	case "":
	case "log":
		g = gen.LogWeights(g, *gf.Seed+1)
	case "heavy":
		g = gen.HeavyWeights(g, *gf.Seed+1)
	default:
		g = gen.UniformWeights(g, lo, hi, *gf.Seed+1)
	}
	return g, nil
}

// input loads or generates the unweighted graph.
func (gf *GraphFlags) input() (*graph.CSR, error) {
	n, m, rows, cols, sym, seed := *gf.N, *gf.M, *gf.Rows, *gf.Cols, *gf.Symmetric, *gf.Seed
	switch {
	case *gf.File != "":
		return graphio.LoadFile(*gf.File, sym)
	case *gf.Gen == "grid" && (rows < 1 || cols < 1 || int64(rows) > math.MaxUint32/int64(cols)):
		return nil, fmt.Errorf("bad -rows %d -cols %d (want each >= 1, rows*cols < 2^32)", rows, cols)
	case *gf.Gen == "grid":
		return gen.Grid2D(rows, cols), nil
	case m < 0:
		return nil, fmt.Errorf("bad -m %d (want >= 0)", m)
	case n < 1 || int64(n) > math.MaxUint32:
		return nil, fmt.Errorf("bad -n %d (want 1 <= n < 2^32)", n)
	case n < 2 && m > 0:
		return nil, fmt.Errorf("bad -n %d: -gen %s needs at least 2 vertices to sample -m %d edges", n, *gf.Gen, m)
	}
	switch *gf.Gen {
	case "rmat":
		return gen.RMAT(n, m, sym, seed), nil
	case "er":
		return gen.ErdosRenyi(n, m, sym, seed), nil
	case "chunglu":
		return gen.ChungLu(n, m, 2.3, sym, seed), nil
	case "regular":
		d := m / n
		if d < 1 {
			d = 8
		}
		return gen.RandomRegular(n, d, sym, seed), nil
	}
	return nil, fmt.Errorf("unknown generator %q", *gf.Gen)
}

// Describe returns a one-line summary of g for banners.
func Describe(g *graph.CSR) string {
	kind := "directed"
	if g.Symmetric() {
		kind = "undirected"
	}
	w := "unweighted"
	if g.Weighted() {
		w = "weighted"
	}
	return fmt.Sprintf("%s %s graph: n=%d m=%d maxdeg=%d",
		kind, w, g.NumVertices(), g.NumEdges(), g.MaxDegree())
}
