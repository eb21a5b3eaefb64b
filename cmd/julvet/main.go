// Command julvet is julienne's multichecker: it runs the custom
// analyzers of internal/analysis (atomicmix, atomicalign, tagdrift,
// norandtime) over the packages matching its arguments, one package at
// a time, and exits non-zero if any diagnostic survives the
// //lint:ignore directives; stale suppressions are reported by the
// unuseddirective driver check. `make lint` runs it over ./... next to
// `go vet` (which contributes the stock copylocks/atomic/nilfunc/
// lostcancel passes the vendorless build cannot import from x/tools).
//
// Usage:
//
//	julvet [flags] [packages]
//
//	-tags tags   build tags for package selection (e.g. julienne_debug,
//	             race) so tag-gated files are analyzed under both halves
//	-run list    comma-separated analyzer subset (default: all)
//	-dir path    analyze a GOPATH-style source tree instead of module
//	             packages (used by the smoke test against the known-bad
//	             fixtures under internal/analysis/testdata)
//	-json        emit diagnostics as a JSON array on stdout (for the
//	             nightly CI sweep)
//	-list        print the registered analyzers and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"julienne/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("julvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tags := fs.String("tags", "", "build tags forwarded to go list")
	runList := fs.String("run", "", "comma-separated analyzer subset (default all)")
	dir := fs.String("dir", "", "analyze a GOPATH-style source tree instead of module packages")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON on stdout")
	list := fs.Bool("list", false, "print registered analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *runList != "" {
		subset, valid := analysis.ByName(strings.Split(*runList, ","))
		if subset == nil {
			fmt.Fprintf(stderr, "julvet: unknown analyzer in -run=%s (valid: %s)\n", *runList, strings.Join(valid, ","))
			return 2
		}
		analyzers = subset
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var pkgs []*analysis.Package
	var err error
	if *dir != "" {
		pkgs, err = analysis.LoadDir(*dir)
	} else {
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		pkgs, err = analysis.Load(analysis.LoadConfig{Tags: *tags}, patterns...)
	}
	if err != nil {
		fmt.Fprintf(stderr, "julvet: %v\n", err)
		return 2
	}

	diags := analysis.RunAnalyzers(pkgs, analyzers)
	if *jsonOut {
		type jsonDiag struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "julvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "julvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
