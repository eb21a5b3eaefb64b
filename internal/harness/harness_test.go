package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("name", "time", "speedup")
	tbl.AddRow("k-core", 1500*time.Microsecond, "2.00x")
	tbl.AddRow("wBFS", 250*time.Microsecond, "-")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"name", "k-core", "1.5ms", "2.00x", "wBFS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestMs(t *testing.T) {
	if Ms(1500*time.Microsecond) != "1.5ms" {
		t.Fatalf("Ms=%q", Ms(1500*time.Microsecond))
	}
}

func TestTime(t *testing.T) {
	calls := 0
	if d := Time(func() { calls++; time.Sleep(2 * time.Millisecond) }); calls != 1 || d < 2*time.Millisecond {
		t.Fatalf("Time ran f %d times and measured %v", calls, d)
	}
}
