package graphio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
)

// The fuzz targets assert that arbitrary input either parses into a
// structurally valid graph or returns a *typed* error — never panics,
// never yields a graph that violates CSR invariants, and never returns
// an ad-hoc error outside the ParseError/ErrCorrupt/ErrTruncated
// contract (errors.go). `go test` runs the seed corpus;
// `go test -fuzz=FuzzReadText ./internal/graphio` explores.

// checkTypedError fails the fuzz iteration when a loader error does
// not follow the typed contract.
func checkTypedError(t *testing.T, err error) {
	t.Helper()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("untyped loader error %v (%T)", err, err)
	}
	if errors.Is(err, ErrCorrupt) == errors.Is(err, ErrTruncated) {
		t.Fatalf("error %v must wrap exactly one of ErrCorrupt/ErrTruncated", err)
	}
}

// checkWeights fails when a loader accepted a negative weight (they
// silently corrupt sssp's unsigned distance arithmetic).
func checkWeights(t *testing.T, g *graph.CSR) {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.OutWeights(graph.Vertex(v)) {
			if w < 0 {
				t.Fatalf("negative weight %d accepted", w)
			}
		}
	}
}

func FuzzReadText(f *testing.F) {
	f.Add("AdjacencyGraph\n2\n1\n0\n1\n1\n")
	f.Add("WeightedAdjacencyGraph\n2\n1\n0\n1\n1\n5\n")
	f.Add("AdjacencyGraph\n0\n0\n")
	f.Add("garbage")
	f.Add("AdjacencyGraph\n-3\n5\n")
	f.Add("AdjacencyGraph\n2\n1\n0\n2\n9\n")
	// Regression seeds: nonzero first offset (panicked in NewCSR),
	// absurd header sizes (makeslice panic), negative weight (silent
	// downstream corruption), edges without vertices.
	f.Add("AdjacencyGraph\n2\n1\n1\n1\n0\n")
	f.Add("AdjacencyGraph\n9223372036854775807\n0\n")
	f.Add("AdjacencyGraph\n1\n9223372036854775807\n0\n")
	f.Add("WeightedAdjacencyGraph\n2\n1\n0\n1\n1\n-5\n")
	f.Add("AdjacencyGraph\n0\n3\n")
	var buf bytes.Buffer
	_ = WriteText(&buf, gen.Grid2D(3, 3))
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadText(strings.NewReader(in), false)
		if err != nil {
			checkTypedError(t, err)
			return
		}
		// Parsed graphs may contain self-loops/dupes (the format allows
		// them); check only the structural offset/edge invariants.
		if g.NumVertices() < 0 || g.NumEdges() < 0 {
			t.Fatal("negative sizes")
		}
		for v := 0; v < g.NumVertices(); v++ {
			for _, u := range g.OutEdges(graph.Vertex(v)) {
				if int(u) >= g.NumVertices() {
					t.Fatalf("out-of-range edge %d", u)
				}
			}
		}
		checkWeights(t, g)
	})
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteBinary(&buf, gen.Grid2D(3, 3))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	// Regression seeds: truncated weighted stream, corrupted weight
	// sign bit, absurd header counts.
	var wbuf bytes.Buffer
	_ = WriteBinary(&wbuf, gen.LogWeights(gen.Grid2D(3, 3), 1))
	wraw := wbuf.Bytes()
	f.Add(wraw[:len(wraw)/2])
	neg := append([]byte(nil), wraw...)
	neg[len(neg)-1] |= 0x80
	f.Add(neg)
	huge := append([]byte(nil), wraw[:40]...)
	for i := 24; i < 40; i++ {
		huge[i] = 0xff
	}
	f.Add(huge)
	f.Fuzz(func(t *testing.T, in []byte) {
		// ReadBinary fully validates before constructing the CSR, so
		// arbitrary bytes must either error (typed) or produce a usable
		// graph.
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			checkTypedError(t, err)
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			nbrs, _ := g.OutAdj(graph.Vertex(v), nil)
			for _, u := range nbrs {
				if int(u) >= g.NumVertices() {
					t.Fatalf("out-of-range neighbor %d", u)
				}
			}
		}
		checkWeights(t, g)
	})
}
