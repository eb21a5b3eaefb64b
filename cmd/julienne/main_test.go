package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"julienne/internal/cli"
	"julienne/internal/graphio"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

var (
	rmatArgs     = []string{"-gen", "rmat", "-n", "1024", "-m", "8192"}
	setcoverArgs = []string{"-sets", "256", "-elements", "2048"}
)

func with(base []string, extra ...string) []string {
	return append(append([]string{}, base...), extra...)
}

// TestEveryImplAnswers runs every subcommand × impl on a small input.
// The expected lines are what the separate per-kernel commands printed
// for the same flags; cover validity and the density recount are
// checked by run itself, so exit 0 pins them.
func TestEveryImplAnswers(t *testing.T) {
	kcoreWant := []string{"kmax=28", "  coreness 28: 55 vertices\n  coreness 26: 1 vertices\n  coreness 22: 2 vertices\n"}
	ssspWant := []string{"reached=789/1024 max_dist=16 avg_dist=4.6"}
	for _, tc := range []struct {
		cmd   string
		impls []string
		args  []string
		want  []string
	}{
		{"kcore", []string{"julienne", "ligra", "bz"}, with(rmatArgs, "-hist", "3"), kcoreWant},
		{"sssp", []string{"delta", "gap-bins"}, with(rmatArgs, "-src", "3", "-delta", "4"), ssspWant},
		{"sssp", []string{"wbfs", "bellman-ford", "dijkstra"}, with(rmatArgs, "-src", "3"), ssspWant},
		{"setcover", []string{"julienne", "pbbs", "greedy"}, setcoverArgs, []string{"(cover valid)"}},
		{"densest", []string{"kcore"}, rmatArgs, []string{"densest subgraph: 97 vertices, density 19.175 (whole graph: 5.979)"}},
	} {
		for _, impl := range tc.impls {
			args := append([]string{tc.cmd, "-impl", impl}, tc.args...)
			code, out, errOut := runArgs(args...)
			if code != 0 {
				t.Errorf("%v: exit %d\n%s", args, code, errOut)
				continue
			}
			want := append([]string{"impl=" + impl + " time="}, tc.want...)
			if tc.cmd == "sssp" {
				want[0] = "algo=" + impl + " src=3 time="
			}
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("%v: output missing %q:\n%s", args, w, out)
				}
			}
		}
	}
}

// TestTimeoutIsPartial: an expired -timeout stops every cancellable
// impl with exit 3 and a PARTIAL line; with -stats the flight tail goes
// to stderr.
func TestTimeoutIsPartial(t *testing.T) {
	for _, tc := range []struct {
		cmd, impl string
		input     []string
	}{
		{"kcore", "julienne", rmatArgs},
		{"sssp", "delta", rmatArgs},
		{"sssp", "wbfs", rmatArgs},
		{"setcover", "julienne", setcoverArgs},
		{"densest", "kcore", rmatArgs},
	} {
		args := with([]string{tc.cmd, "-impl", tc.impl, "-timeout", "1ns", "-stats"}, tc.input...)
		code, out, errOut := runArgs(args...)
		if code != 3 || !strings.Contains(out, " PARTIAL ") || !strings.Contains(errOut, "flight recorder") {
			t.Errorf("%v: exit %d, want 3 with a PARTIAL line and the flight tail\nstdout:\n%s\nstderr:\n%s",
				args, code, out, errOut)
		}
	}
}

// TestErrorExitCodes: bad commands, flags and inputs exit 2 with a
// message naming what was wrong, never a panic trace; an output that
// cannot be written exits 1.
func TestErrorExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "x")
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{nil, 2, "usage"},
		{[]string{"bfs"}, 2, "usage"},
		{[]string{"kcore", "-impl", "peel"}, 2, `unknown -impl "peel"`},
		{[]string{"kcore", "-bogus"}, 2, "-bogus"},
		{[]string{"kcore", "-n", "8", "-m", "8", "stray"}, 2, `unexpected argument "stray"`},
		{[]string{"kcore", "-n", "0"}, 2, "-n 0"},
		{[]string{"kcore", "-n", "1"}, 2, "-n 1"},
		{[]string{"kcore", "-gen", "grid", "-rows", "-1"}, 2, "-rows -1"},
		{[]string{"sssp", "-weights", "uniform:5:1"}, 2, "-weights"},
		{[]string{"sssp", "-n", "1024", "-m", "8192", "-src", "99999999"}, 2, "-src 99999999 out of range"},
		{[]string{"kcore", "-impl", "ligra", "-timeout", "1s"}, 2, "-impl ligra"},
		{[]string{"kcore", "-impl", "bz", "-timeout", "1ns"}, 2, "-impl bz"},
		{[]string{"sssp", "-impl", "gap-bins", "-timeout", "1s"}, 2, "-impl gap-bins"},
		{[]string{"sssp", "-impl", "bellman-ford", "-timeout", "1s"}, 2, "-impl bellman-ford"},
		{[]string{"sssp", "-impl", "dijkstra", "-timeout", "1s"}, 2, "-impl dijkstra"},
		{[]string{"setcover", "-impl", "pbbs", "-timeout", "1s"}, 2, "-impl pbbs"},
		{[]string{"setcover", "-impl", "greedy", "-timeout", "1s"}, 2, "-impl greedy"},
		{[]string{"sssp", "-impl", "wbfs", "-delta", "4"}, 2, "cannot honour -delta"},
		{[]string{"sssp", "-impl", "bellman-ford", "-delta", "4"}, 2, "cannot honour -delta"},
		{[]string{"sssp", "-impl", "dijkstra", "-delta", "32768"}, 2, "cannot honour -delta"},
		{[]string{"setcover", "-sets", "0"}, 2, "-sets 0"},
		{[]string{"setcover", "-epsilon", "NaN"}, 2, "-epsilon NaN"},
		{[]string{"setcover", "-epsilon", "-0.5"}, 2, "-epsilon -0.5"},
		{[]string{"densest", "-n", "8", "-m", "8", "-impl", "batch"}, 2, `unknown -impl "batch"`},
		{[]string{"densest", "-n", "8", "-m", "8", "-impl", "batch", "-epsilon", "Inf"}, 2, "flag provided but not defined: -epsilon"},
		{[]string{"densest", "-n", "8", "-m", "8", "-epsilon", "-Inf"}, 2, "flag provided but not defined: -epsilon"},
		{[]string{"densest", "-n", "8", "-m", "8", "-impl", "kcore", "-epsilon", "0.1"}, 2, "flag provided but not defined: -epsilon"},
		{[]string{"gen", "-n", "8", "-m", "8"}, 2, "-out is required"},
		{[]string{"gen", "-n", "8", "-m", "8", "-out", missing}, 1, "missing"},
		{[]string{"kcore", "-n", "8", "-m", "8", "-trace", missing}, 1, "missing"},
	} {
		code, _, errOut := runArgs(tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.msg) || strings.Contains(errOut, "goroutine") {
			t.Errorf("%v: exit %d, want %d with %q\nstderr:\n%s", tc.args, code, tc.code, tc.msg, errOut)
		}
	}
}

// TestGenRoundTrip: gen writes a file that loads back as the graph it
// describes, in both formats, and says how long the build took.
func TestGenRoundTrip(t *testing.T) {
	for _, name := range []string{"g.adj", "g.bin"} {
		path := filepath.Join(t.TempDir(), name)
		code, out, errOut := runArgs(with([]string{"gen", "-out", path}, rmatArgs...)...)
		line, ok := strings.CutPrefix(out, "wrote "+path+": ")
		described, built, timed := strings.Cut(strings.TrimSuffix(line, "\n"), " build=")
		if code != 0 || !ok || !timed {
			t.Fatalf("%s: exit %d, stdout %q\n%s", name, code, out, errOut)
		}
		if d, err := time.ParseDuration(built); err != nil || d <= 0 {
			t.Errorf("%s: build=%q is not a positive duration", name, built)
		}
		g, err := graphio.LoadFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := cli.Describe(g); got != described {
			t.Errorf("%s: loaded %q, wrote %q", name, got, described)
		}
	}
}
