// Command benchmark is the repository's one gated benchmark (see
// README.md in this directory and BENCHMARK.json at the root). It runs
// one workload per process, verifies every operation, and prints every
// metric by name with its unit; the last line of standard output is the
// JSON object the driver reads.
//
//	bash benchmark/run.sh --workload kcore-rmat --seed 2017 --seconds 16 --trace 0
//
// Layers are measured from outside: the program reaches the system only
// through the root julienne facade plus internal/serve and
// internal/parallel, which have no facade.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"julienne"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	outDir   string
	// selfcheck replaces the single run by the A,B,A,B comparison.
	selfcheck bool
	// corrupt makes the verifier see one damaged result, so tests can
	// assert that a wrong answer is counted and fails the run.
	corrupt bool
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 2017, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 16, "length of the measured window; sets the fixed rep counts")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	scale := fs.String("scale", "full", "full, or smoke (n=2^10, 3 reps) for tests")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for traces and temporary files")
	fs.BoolVar(&cfg.selfcheck, "selfcheck", false, "run every workload as sets A,B,A,B and compare the sets against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	cfg.smoke = *scale == "smoke"
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(stderr, "benchmark: unknown -scale %q\n", *scale)
		return 2
	}
	return execute(cfg, stdout, stderr)
}

// execute runs what the arguments asked for and returns the exit code:
// non-zero when the harness could not run or any operation failed.
func execute(cfg config, stdout, stderr io.Writer) int {
	if cfg.selfcheck {
		return runSelfcheck(cfg, stdout, stderr)
	}
	rep, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// run measures one workload and prints its metrics. An error means the
// harness itself could not run; wrong answers from the system are
// counted in the report instead.
func run(cfg config, stdout io.Writer) (report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (want one of: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return report{}, errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return report{}, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(tmp)

	procs := min(runtime.NumCPU(), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	var tr *julienne.Recorder // benchmark-side spans; nil (inert) unless tracing
	setUps := 3
	if cfg.trace {
		tr = julienne.NewRecorder()
		setUps = 1
	}
	host := newHostProbe()

	// Set-up runs from scratch several times, a host probe on either
	// side of each, and the median counts.
	var in *input
	var setupS []float64
	host.mark()
	for i := 0; i < setUps; i++ {
		// From scratch: the previous graph is collected and its memory
		// returned, as in a fresh process.
		in = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		in, err = setUp(w, cfg, tmp, tr)
		if err != nil {
			return report{}, err
		}
		dt := time.Since(t0).Seconds()
		setupS = append(setupS, dt*host.scaleSince())
	}

	ver := &verifier{corrupt: cfg.corrupt}
	plan, err := newPlan(w, in, cfg, host)
	if err != nil {
		return report{}, err
	}

	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %d  P=%d  n=%d m=%d\n",
		w.name, cfg.seed, cfg.seconds, procs, in.g.NumVertices(), in.g.NumEdges())
	var metrics []metric
	if !cfg.trace {
		win, err := plan.window(plan.reps, nil, ver)
		if err != nil {
			return report{}, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		metrics = []metric{
			{"setup_s", median(setupS), "s"},
			{"time_s", fastDecileByInput(win.timeP, scaledOf), "s"},
			{"time_p1_s", fastDecileByInput(win.timeP1, scaledOf), "s"},
			{"alloc_mb_per_op", float64(win.allocP1) / float64(len(win.timeP1)) / 1e6, "MB"},
			{"peak_rss_mb", rss, "MB"},
		}
		// What the clock read, before scaling to the nominal host.
		fmt.Fprintf(stdout, "unscaled: time_s %.6g (median %.6g, n=%d), time_p1_s %.6g (median %.6g, n=%d); host probe %.4g ms, nominal %.4g ms\n",
			fastDecileByInput(win.timeP, rawOf), median(raws(win.timeP)), len(win.timeP),
			fastDecileByInput(win.timeP1, rawOf), median(raws(win.timeP1)), len(win.timeP1),
			fastDecileMean(host.probes)*1e3, refNominalS*1e3)
	} else {
		metrics, err = tracedPass(plan, procs, tr, ver)
		if err != nil {
			return report{}, err
		}
		if err := writeTrace(filepath.Join(cfg.outDir, w.name+".trace.json"), tr); err != nil {
			return report{}, err
		}
	}

	rep := report{
		Correct:   ver.failed == 0,
		Attempted: ver.attempted,
		Failed:    ver.failed,
		Metrics:   make(map[string]metricValue, len(metrics)),
	}
	for _, m := range metrics {
		if _, dup := rep.Metrics[m.name]; dup {
			return report{}, fmt.Errorf("metric %s measured twice", m.name)
		}
		rep.Metrics[m.name] = metricValue{m.value, m.unit}
		fmt.Fprintf(stdout, "%-32s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	fmt.Fprintf(stdout, "fail_ratio %d/%d", ver.failed, ver.attempted)
	if ver.failed > 0 {
		fmt.Fprintf(stdout, "  first failure: %s", ver.first)
	}
	fmt.Fprintln(stdout)
	line, err := json.Marshal(rep)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rep, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM),
// which is why one process measures one workload.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

func writeTrace(path string, tr *julienne.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
