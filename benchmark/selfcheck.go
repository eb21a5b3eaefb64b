package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// declared mirrors the parts of BENCHMARK.json the program and its
// tests read.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readDeclared(path string) (declared, error) {
	var decl declared
	raw, err := os.ReadFile(path)
	if err != nil {
		return decl, err
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return decl, fmt.Errorf("%s: %w", path, err)
	}
	return decl, nil
}

// runSelfcheck runs every workload four times, as sets A,B,A,B of the
// same code, and fails if any end-to-end metric's mean over set B
// differs from its mean over set A by more than the metric's bound: the noise the
// benchmark admits to must fit inside the bounds it gates on. Each run
// is its own process, as under the driver.
func runSelfcheck(cfg config, stdout, stderr io.Writer) int {
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: selfcheck runs from the repository root: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	scale := "full"
	if cfg.smoke {
		scale = "smoke"
	}
	// sums[workload][metric][set]
	sums := map[string]map[string]*[2]float64{}
	for pass := 0; pass < 4; pass++ {
		for _, w := range decl.Workloads {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-scale", scale, "-out", cfg.outDir)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: selfcheck: %s: %v\n", w.Name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				fmt.Fprintf(stderr, "benchmark: selfcheck: %s: last line: %v\n", w.Name, err)
				return 1
			}
			if sums[w.Name] == nil {
				sums[w.Name] = map[string]*[2]float64{}
			}
			for name, m := range rep.Metrics {
				if sums[w.Name][name] == nil {
					sums[w.Name][name] = new([2]float64)
				}
				sums[w.Name][name][pass%2] += m.Value / 2
			}
			fmt.Fprintf(stdout, "pass %d (set %c) %s done\n", pass+1, 'A'+pass%2, w.Name)
		}
	}
	failed := false
	fmt.Fprintf(stdout, "%-12s %-18s %12s %12s %8s %6s\n", "workload", "metric", "set A", "set B", "B vs A", "bound")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			ab := sums[w.Name][m.Name]
			diff := (ab[1] - ab[0]) / ab[0]
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict, failed = "  FAIL", true
			}
			fmt.Fprintf(stdout, "%-12s %-18s %12.5g %12.5g %+7.1f%% %5.0f%%%s\n",
				w.Name, m.Name, ab[0], ab[1], 100*diff, 100*m.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
