// Package harness is the plumbing the CLIs, the bench harness and the
// tests share: the single-shot clock (Time), fixed-width table
// rendering (Table) and the goroutine leak check. Repeated, warmed-up
// measurement lives in internal/bench, the only package that takes
// more than one sample of anything.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Time runs f once and returns its wall-clock duration: what a CLI
// prints for the one run it was asked for, and the clock
// internal/bench's measure reads once per sample.
func Time(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are rendered with %v (durations get
// millisecond formatting via Ms).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = Ms(v)
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Ms renders a duration in milliseconds with three significant digits,
// the unit the paper's tables effectively use at laptop scale.
func Ms(d time.Duration) string {
	return fmt.Sprintf("%.3gms", float64(d.Microseconds())/1000.0)
}
