// Package stats provides the metric helpers used across the evaluation:
// means, speedups, system throughput (STP) and simple table formatting for
// the experiment harnesses.
package stats

import (
	"fmt"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// STP is the system-throughput metric of Section 3.2.2: the mean of
// per-application speedups relative to each application running alone on
// the reference core.
func STP(ipc, ipcRef []float64) float64 {
	if len(ipc) != len(ipcRef) || len(ipc) == 0 {
		return 0
	}
	speedups := make([]float64, len(ipc))
	for i := range ipc {
		if ipcRef[i] > 0 {
			speedups[i] = ipc[i] / ipcRef[i]
		}
	}
	return Mean(speedups)
}

// Pct formats a fraction as a percentage string.
func Pct(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }

// Table is a simple fixed-width text table for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	ncols := len(t.Headers)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with 2 decimals.
func F(x float64) string { return fmt.Sprintf("%.2f", x) }
