package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean %v", got)
	}
}

func TestSTP(t *testing.T) {
	ipc := []float64{1, 2}
	ref := []float64{2, 2}
	if got := STP(ipc, ref); got != 0.75 {
		t.Errorf("STP %v, want 0.75", got)
	}
	if STP(ipc, ref[:1]) != 0 {
		t.Error("mismatched lengths should give 0")
	}
	if STP(nil, nil) != 0 {
		t.Error("empty STP")
	}
	// Zero reference IPC contributes zero speedup rather than Inf.
	if got := STP([]float64{1, 1}, []float64{0, 1}); got != 0.5 {
		t.Errorf("STP with zero ref %v", got)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.84) != "84%" {
		t.Errorf("Pct: %q", Pct(0.84))
	}
}

func TestFormats(t *testing.T) {
	if F(1.234) != "1.23" {
		t.Error("float formats")
	}
}

func TestMeanEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]float64) float64
		in   []float64
		want float64
	}{
		{"mean nil", Mean, nil, 0},
		{"mean negatives ok", Mean, []float64{-1, 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.fn(tc.in); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSTPEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		ipc  []float64
		ref  []float64
		want float64
	}{
		{"both nil", nil, nil, 0},
		{"ipc shorter", []float64{1}, []float64{1, 2}, 0},
		{"ref shorter", []float64{1, 2}, []float64{1}, 0},
		{"all zero refs", []float64{1, 2}, []float64{0, 0}, 0},
		{"identity", []float64{3, 3}, []float64{3, 3}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := STP(tc.ipc, tc.ref); got != tc.want {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestTableRaggedRows(t *testing.T) {
	cases := []struct {
		name    string
		headers []string
		rows    [][]string
	}{
		{"row wider than headers", []string{"a"}, [][]string{{"1", "extra", "more"}}},
		{"row narrower than headers", []string{"a", "b", "c"}, [][]string{{"1"}}},
		{"no headers at all", nil, [][]string{{"x", "y"}}},
		{"empty table", []string{"a", "b"}, nil},
		{"wide cell beyond header count", []string{"a"}, [][]string{{"1", "a-very-wide-cell"}, {"2", "s"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := Table{Headers: tc.headers, Rows: tc.rows}
			out := tbl.String() // must not panic on ragged shapes
			if len(tc.rows) > 0 && !strings.Contains(out, tc.rows[0][0]) {
				t.Errorf("first cell missing from output:\n%s", out)
			}
		})
	}
	// Width sizing uses the widest row, so cells beyond the header count
	// still get their own aligned column instead of inheriting the last
	// header's width.
	tbl := Table{Headers: []string{"h"}}
	tbl.AddRow("1", "wide-cell")
	tbl.AddRow("2", "x")
	lines := strings.Split(strings.TrimSpace(tbl.String()), "\n")
	row0, row1 := lines[len(lines)-2], lines[len(lines)-1]
	if strings.Index(row0, "wide-cell") != strings.Index(row1, "x") {
		t.Errorf("second column misaligned:\n%s\n%s", row0, row1)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "demo", Headers: []string{"a", "bench"}}
	tbl.AddRow("1", "x")
	tbl.AddRow("22", "yy")
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
	// Columns align: the header and first row start "bench" at the same
	// offset.
	if idx := strings.Index(lines[1], "bench"); idx < 0 || !strings.Contains(lines[3][idx:], "x") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}
