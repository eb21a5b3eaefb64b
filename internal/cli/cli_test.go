package cli

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"julienne/internal/gen"
	"julienne/internal/graphio"
)

func flagsFor(t *testing.T, args ...string) *GraphFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	gf := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return gf
}

func TestGenerators(t *testing.T) {
	for _, genName := range []string{"rmat", "er", "chunglu", "regular"} {
		gf := flagsFor(t, "-gen", genName, "-n", "256", "-m", "1024")
		g, err := gf.Build()
		if err != nil {
			t.Fatalf("%s: %v", genName, err)
		}
		if g.NumVertices() != 256 || g.NumEdges() == 0 {
			t.Fatalf("%s: bad graph", genName)
		}
	}
	gf := flagsFor(t, "-gen", "grid", "-rows", "5", "-cols", "7")
	g, err := gf.Build()
	if err != nil || g.NumVertices() != 35 {
		t.Fatalf("grid: %v", err)
	}
}

func TestUnknownGenerator(t *testing.T) {
	gf := flagsFor(t, "-gen", "mystery")
	if _, err := gf.Build(); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

// TestBadFlagsFailFast: input outside a generator's domain is an error
// naming the flag, returned promptly — never a panic or a generator
// that samples forever (rmat with one vertex rejects every edge as a
// self-loop).
func TestBadFlagsFailFast(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-gen", "rmat", "-n", "0"}, "-n"},
		{[]string{"-gen", "rmat", "-n", "1"}, "-n"},
		{[]string{"-gen", "er", "-n", "-5", "-m", "0"}, "-n"},
		{[]string{"-gen", "rmat", "-m", "-1"}, "-m"},
		{[]string{"-gen", "grid", "-rows", "-1"}, "-rows"},
		{[]string{"-gen", "grid", "-cols", "0"}, "-cols"},
		{[]string{"-gen", "grid", "-rows", "4", "-cols", "4", "-weights", "uniform:5:1"}, "-weights"},
		{[]string{"-gen", "grid", "-rows", "4", "-cols", "4", "-weights", "uniform:-1:5"}, "-weights"},
	} {
		gf := flagsFor(t, tc.args...)
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			_, err := gf.Build()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.flag) || strings.HasPrefix(err.Error(), "panic") {
				t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: Build still running after 10s", tc.args)
		}
	}
}

func TestWeights(t *testing.T) {
	for _, w := range []string{"log", "heavy", "uniform:1:50"} {
		gf := flagsFor(t, "-gen", "grid", "-rows", "4", "-cols", "4", "-weights", w)
		g, err := gf.Build()
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !g.Weighted() {
			t.Fatalf("%s: not weighted", w)
		}
	}
	gf := flagsFor(t, "-weights", "bogus")
	if _, err := gf.Build(); err == nil {
		t.Fatal("bad weights spec accepted")
	}
}

func TestFileLoading(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := graphio.SaveFile(path, gen.Grid2D(3, 3)); err != nil {
		t.Fatal(err)
	}
	gf := flagsFor(t, "-file", path)
	g, err := gf.Build()
	if err != nil || g.NumVertices() != 9 {
		t.Fatalf("file load: %v", err)
	}
	gf2 := flagsFor(t, "-file", filepath.Join(dir, "missing.bin"))
	if _, err := gf2.Build(); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDescribe(t *testing.T) {
	d := Describe(gen.Grid2D(2, 2))
	for _, want := range []string{"undirected", "unweighted", "n=4"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q: %s", want, d)
		}
	}
	wd := Describe(gen.LogWeights(gen.Grid2D(2, 2), 1))
	if !strings.Contains(wd, "weighted") {
		t.Fatalf("Describe: %s", wd)
	}
}
