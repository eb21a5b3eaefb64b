package graphio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
)

func assertSame(t *testing.T, name string, want, got *graph.CSR) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: shape mismatch", name)
	}
	if want.Weighted() != got.Weighted() {
		t.Fatalf("%s: weighted flag mismatch", name)
	}
	for v := 0; v < want.NumVertices(); v++ {
		vv := graph.Vertex(v)
		we, ge := want.OutEdges(vv), got.OutEdges(vv)
		if len(we) != len(ge) {
			t.Fatalf("%s: degree(%d) %d vs %d", name, v, len(we), len(ge))
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("%s: edge %d of %d differs", name, i, v)
			}
		}
		ww, gw := want.OutWeights(vv), got.OutWeights(vv)
		for i := range ww {
			if ww[i] != gw[i] {
				t.Fatalf("%s: weight %d of %d differs", name, i, v)
			}
		}
	}
}

func families() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"rmat":     gen.RMAT(1<<9, 3000, true, 1),
		"grid":     gen.Grid2D(9, 11),
		"er-dir":   gen.ErdosRenyi(200, 900, false, 2),
		"weighted": gen.LogWeights(gen.Grid2D(8, 8), 3),
		"empty":    graph.FromEdges(5, nil, graph.DefaultBuild),
	}
}

func TestTextRoundTrip(t *testing.T) {
	for name, g := range families() {
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadText(&buf, g.Symmetric())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSame(t, name, g, got)
		if got.Symmetric() != g.Symmetric() {
			t.Fatalf("%s: symmetry flag lost", name)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, g := range families() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSame(t, name, g, got)
		if got.Symmetric() != g.Symmetric() {
			t.Fatalf("%s: symmetry flag lost", name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := gen.LogWeights(gen.RMAT(1<<8, 1500, true, 7), 7)
	for _, name := range []string{"g.adj", "g.txt", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSame(t, name, g, got)
	}
}

func TestTextHeaderErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":   "NotAGraph\n1\n0\n0\n",
		"truncated":    "AdjacencyGraph\n2\n",
		"bad offset":   "AdjacencyGraph\n2\n1\n0\n9\n1\n",
		"bad edge":     "AdjacencyGraph\n2\n1\n0\n1\n7\n",
		"non-numeric":  "AdjacencyGraph\nx\n0\n",
		"neg sizes":    "AdjacencyGraph\n-1\n0\n",
		"offset order": "AdjacencyGraph\n2\n2\n2\n0\n0\n1\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in), false); err == nil {
			t.Fatalf("%s: error expected", name)
		}
	}
}

func TestBinaryHeaderErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header accepted")
	}
	var buf bytes.Buffer
	_ = WriteBinary(&buf, gen.Path(4))
	raw := buf.Bytes()
	raw[0] ^= 0xff // corrupt magic
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPackedGraphSavesLiveEdges(t *testing.T) {
	g := gen.Star(6)
	g.PackOut(0, func(u graph.Vertex) bool { return u%2 == 1 })
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.OutDegree(0) != 3 {
		t.Fatalf("packed save degree %d want 3", got.OutDegree(0))
	}
}
