package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"julienne/internal/analysis"
)

// capture runs the julvet driver with the given arguments, returning
// its exit code and the two output streams.
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	open := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	outF, errF := open("stdout"), open("stderr")
	defer outF.Close()
	defer errF.Close()
	code := run(args, outF, errF)
	read := func(f *os.File) string {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return code, read(outF), read(errF)
}

// TestListRegistersAllAnalyzers pins the suite the multichecker is
// built with: -list prints exactly the registry, in reporting order.
func TestListRegistersAllAnalyzers(t *testing.T) {
	code, out, stderr := capture(t, "-list")
	if code != 0 {
		t.Fatalf("julvet -list exited %d, stderr:\n%s", code, stderr)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	const want = "atomicmix atomicalign tagdrift norandtime"
	if strings.Join(got, " ") != want {
		t.Errorf("-list names = %q, want %q", strings.Join(got, " "), want)
	}
	if len(analysis.All()) != len(got) {
		t.Errorf("registry has %d analyzers, -list printed %d", len(analysis.All()), len(got))
	}
}

// TestKnownBadFixtureFails pins the end-to-end contract: julvet exits
// non-zero on a tree with violations and names the analyzer in its
// output.
func TestKnownBadFixtureFails(t *testing.T) {
	code, out, stderr := capture(t, "-dir", "testdata/src")
	if code != 1 {
		t.Fatalf("julvet -dir testdata/src exited %d, want 1; stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	for _, frag := range []string{"[julvet/norandtime]", "bad.go"} {
		if !strings.Contains(out, frag) {
			t.Errorf("diagnostic output missing %q:\n%s", frag, out)
		}
	}
}

// TestJSONOutput pins the machine-readable mode the nightly CI job
// consumes: exit 1 on findings, stdout a JSON array with stable field
// names, human text kept off stdout.
func TestJSONOutput(t *testing.T) {
	code, out, stderr := capture(t, "-json", "-dir", "testdata/src")
	if code != 1 {
		t.Fatalf("julvet -json exited %d, want 1; stderr:\n%s", code, stderr)
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out)
	}
	byAnalyzer := map[string]bool{}
	for _, d := range diags {
		if d.Analyzer == "" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("diagnostic with missing fields: %+v", d)
		}
		byAnalyzer[d.Analyzer] = true
	}
	if !byAnalyzer["norandtime"] {
		t.Errorf("JSON output missing a norandtime finding: %s", out)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("summary line missing from stderr:\n%s", stderr)
	}
}

// TestAnalyzerSubset pins -run: restricting to an analyzer that has no
// findings on the bad fixture must exit clean.
func TestAnalyzerSubset(t *testing.T) {
	code, out, stderr := capture(t, "-run", "atomicmix", "-dir", "testdata/src")
	if code != 0 {
		t.Fatalf("julvet -run atomicmix exited %d; stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
}

// TestUnknownAnalyzer pins the usage-error exit code.
func TestUnknownAnalyzer(t *testing.T) {
	code, _, stderr := capture(t, "-run", "nosuch")
	if code != 2 {
		t.Fatalf("julvet -run nosuch exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message:\n%s", stderr)
	}
}
