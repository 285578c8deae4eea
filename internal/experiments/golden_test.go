package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenReports are hand-built fixtures covering the encoder's edge cases:
// a fully-populated report, one with no notes/title/headers, and one with an
// empty table (Rows must encode as [] rather than null so downstream diff
// tooling sees a stable shape).
func goldenReports() []*Report {
	full := &Report{
		ID:    "Figure 7",
		Notes: "STP relative to Homo-OoO; fixture for the JSON golden test",
	}
	full.Table.Title = "Figure 7: STP relative to Homo-OoO vs InO cores per OoO"
	full.Table.Headers = []string{"n", "Homo-InO", "SC-MPKI"}
	full.Table.AddRow("4", "52%", "81%")
	full.Table.AddRow("8", "49%", "78%")

	bare := &Report{ID: "Table 2"}
	bare.Table.AddRow("OoO", "3-wide, 128-entry ROB")

	empty := &Report{ID: "SC size", Notes: "no rows: every mix failed to sample"}
	empty.Table.Title = "SC sizing study"
	empty.Table.Headers = []string{"SC capacity", "STP vs Homo-OoO"}

	return []*Report{full, bare, empty}
}

// checkGolden compares got against testdata/<name>, rewriting the file when
// -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

func TestReportMarshalJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		rep  *Report
	}{
		{"report_full.json", goldenReports()[0]},
		{"report_bare.json", goldenReports()[1]},
		{"report_empty_table.json", goldenReports()[2]},
	} {
		var buf bytes.Buffer
		if err := tc.rep.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		checkGolden(t, tc.file, buf.Bytes())

		// The encoding must round-trip into the documented flat shape.
		var back struct {
			ID   string     `json:"id"`
			Rows [][]string `json:"rows"`
		}
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("%s does not re-parse: %v", tc.file, err)
		}
		if back.ID != tc.rep.ID {
			t.Errorf("%s: round-tripped id %q, want %q", tc.file, back.ID, tc.rep.ID)
		}
		if back.Rows == nil {
			t.Errorf("%s: rows encoded as null, want []", tc.file)
		}
	}
}

func TestWriteReportsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReportsJSON(&buf, goldenReports()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reports_array.json", buf.Bytes())

	// A nil slice still writes a valid empty array.
	buf.Reset()
	if err := WriteReportsJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reports_nil.json", buf.Bytes())
}

// TestReportsGolden pins the rendered output of every registered experiment
// at tinyScale, so a refactor of the evaluation loops cannot shift a single
// cell unseen. Regenerate with `go test ./internal/experiments -run
// TestReportsGolden -update` only when a change is meant to move numbers.
func TestReportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	var reports []*Report
	for _, e := range All() {
		rep, err := e.Run(context.Background(), tinyScale)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		reports = append(reports, rep)
	}
	var buf bytes.Buffer
	if err := WriteReportsJSON(&buf, reports); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reports_tiny.json", buf.Bytes())
}
