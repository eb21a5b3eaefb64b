package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func readContract(t *testing.T) declared {
	t.Helper()
	c, err := readDeclared(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeRun runs one workload in-process at the smoke scale and returns
// its exit code, its standard output and the parsed last line.
func smokeRun(t *testing.T, cfg config) (int, string, report) {
	t.Helper()
	cfg.smoke, cfg.seed, cfg.seconds = true, 2017, 1
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line of standard output is not the result object: %v\n%s", err, stdout.String())
	}
	return code, stdout.String(), rep
}

// TestSmoke is the guard against a benchmark that no longer runs: every
// workload, both passes, at n=2^10, in-process. It needs no fixed port
// and no outside program: the served workload listens on 127.0.0.1:0.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, pass := range []struct {
			name     string
			trace    bool
			declared []declaredMetric
		}{{"end_to_end", false, c.EndToEnd}, {"per_layer", true, c.PerLayer}} {
			t.Run(w.Name+"/"+pass.name, func(t *testing.T) {
				out := t.TempDir()
				code, stdout, rep := smokeRun(t, config{workload: w.Name, trace: pass.trace, outDir: out})
				if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("exit code %d, correct=%v, %d of %d operations failed\n%s",
						code, rep.Correct, rep.Failed, rep.Attempted, stdout)
				}

				// Every declared metric is in the result object with its
				// unit, and nothing else is.
				want := map[string]string{}
				for _, m := range pass.declared {
					want[m.Name] = m.Unit
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s is not in the result", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				for name := range rep.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is printed but not declared in BENCHMARK.json", name)
					}
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q does not fit the contract", name)
					}
				}

				// The readable lines print each metric exactly once:
				// "name value unit".
				printed := map[string]int{}
				for _, line := range strings.Split(stdout, "\n") {
					f := strings.Fields(line)
					if len(f) != 3 {
						continue
					}
					if _, err := strconv.ParseFloat(f[1], 64); err != nil {
						continue
					}
					printed[f[0]]++
					if unit, ok := want[f[0]]; !ok || unit != f[2] {
						t.Errorf("line %q: not a declared metric with its unit", line)
					}
				}
				for name := range want {
					if printed[name] != 1 {
						t.Errorf("metric %s printed %d times, want once", name, printed[name])
					}
				}

				// Nothing temporary is left behind; the traced pass leaves
				// its trace and nothing else.
				left, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range left {
					names = append(names, e.Name())
				}
				wantLeft := ""
				if pass.trace {
					wantLeft = w.Name + ".trace.json"
				}
				if got := strings.Join(names, " "); got != wantLeft {
					t.Errorf("run left %q in its output directory, want %q", got, wantLeft)
				}
			})
		}
	}
}

// TestCorruptResultFailsTheRun damages one result on its way to the
// verifier: the run must count exactly one failed operation, report
// correct=false and exit non-zero.
func TestCorruptResultFailsTheRun(t *testing.T) {
	for _, name := range []string{"kcore-rmat", "delta-rmat", "serve-zipf"} {
		t.Run(name, func(t *testing.T) {
			code, stdout, rep := smokeRun(t, config{workload: name, outDir: t.TempDir(), corrupt: true})
			if code == 0 || rep.Correct || rep.Failed != 1 {
				t.Errorf("exit code %d, correct=%v, failed=%d; want a non-zero exit, correct=false, failed=1\n%s",
					code, rep.Correct, rep.Failed, stdout)
			}
		})
	}
}

// TestTracedCountsRepeat pins what a later claim may rest on: the
// counts of the traced pass repeat exactly for a given seed.
func TestTracedCountsRepeat(t *testing.T) {
	for _, name := range []string{"kcore-rmat", "wbfs-grid", "delta-rmat"} {
		_, _, a := smokeRun(t, config{workload: name, trace: true, outDir: t.TempDir()})
		_, _, b := smokeRun(t, config{workload: name, trace: true, outDir: t.TempDir()})
		for _, m := range []string{"algo.rounds", "bucket.extracted", "bucket.moved", "graph.edges"} {
			if a.Metrics[m].Value != b.Metrics[m].Value || a.Metrics[m].Value == 0 {
				t.Errorf("%s: %s = %v, then %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// TestBadArguments: the program refuses what it cannot run.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "no-such-workload"},
		{"--workload", "kcore-rmat", "--seconds", "0"},
		{"--workload", "kcore-rmat", "--scale", "huge"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(append(args, "--out", t.TempDir()), &stdout, &stderr); code == 0 {
			t.Errorf("arguments %v: exit code 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("arguments %v: printed a result: %s", args, stdout.String())
		}
	}
}
