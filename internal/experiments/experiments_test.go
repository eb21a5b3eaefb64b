package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func smallSuite(buf *bytes.Buffer) *Suite {
	return &Suite{W: buf, Scale: Small, Reps: 1, Seed: 7}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"small": Small, "medium": Medium, "large": Large} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestGraphsInventory(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	gs := s.Graphs()
	if len(gs) != 5 {
		t.Fatalf("inventory size %d", len(gs))
	}
	names := map[string]bool{}
	for _, ng := range gs {
		if ng.G.NumVertices() == 0 || ng.G.NumEdges() == 0 {
			t.Fatalf("%s is empty", ng.Name)
		}
		if !ng.G.Symmetric() {
			t.Fatalf("%s is directed", ng.Name)
		}
		names[ng.Name] = true
	}
	if !names["rmat"] || !names["road"] {
		t.Fatalf("missing expected graphs: %v", names)
	}
	if s.graphForName("rmat") == nil || s.graphForName("nope") != nil {
		t.Fatal("graphForName lookup broken")
	}
}

func TestTable2Renders(t *testing.T) {
	var buf bytes.Buffer
	smallSuite(&buf).Table2()
	out := buf.String()
	for _, want := range []string{"Table 2", "rmat", "road", "rho", "setcover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	smallSuite(&buf).Table1()
	out := buf.String()
	for _, want := range []string{"k-core", "wBFS", "set cover", "vertices scanned"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1Renders(t *testing.T) {
	var buf bytes.Buffer
	smallSuite(&buf).Figure1()
	out := buf.String()
	for _, want := range []string{"128 buckets", "1024 buckets", "k-core", "wBFS", "setcover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	if err := s.Run("table2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("bogus"); err == nil {
		t.Fatal("bogus experiment accepted")
	}
	for _, id := range IDs() {
		if id == "all" {
			continue
		}
		// Every id must be dispatchable (but running all of them at
		// test time is covered by TestRunAllSmall).
		switch id {
		case "table2":
		default:
		}
	}
}

// TestRunAllSmall smoke-runs the entire suite at the smallest scale —
// this is the end-to-end check that every table and figure can be
// regenerated.
func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	smallSuite(&buf).RunAll()
	out := buf.String()
	for _, want := range []string{
		"Table 2", "Figure 1", "Table 1", "Table 3",
		"Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Ablation: open-range size",
		"Ablation: CSR vs. Ligra+",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in RunAll output", want)
		}
	}
}

func TestExtensionsRenders(t *testing.T) {
	var buf bytes.Buffer
	smallSuite(&buf).Extensions()
	out := buf.String()
	for _, want := range []string{"densest subgraph", "charikar", "k-core extraction", "weighted set cover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}
