package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/memo"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/telemetry_golden.json")

// telemetryGolden is one run's published telemetry: the whole registry, how
// many trace events of each (name, phase) it emitted, and a digest of every
// event, so any change to a counter, a histogram, a gauge or an event's
// timestamp or arguments shows while the events' emission order may change.
type telemetryGolden struct {
	Snapshot    telemetry.Snapshot `json:"snapshot"`
	EventCounts map[string]int     `json:"event_counts"`
	TraceSHA256 string             `json:"trace_sha256"`
}

// goldenTelemetryRun runs cfg on a fresh Telemetry and fresh memos, so the
// memo_hits counters do not depend on what the package ran before.
func goldenTelemetryRun(t *testing.T, cfg Config) telemetryGolden {
	t.Helper()
	memo.Reset()
	tel := telemetry.New()
	cfg.Telemetry = tel
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	g := telemetryGolden{Snapshot: tel.Reg().Snapshot(), EventCounts: map[string]int{}}
	var lines []string
	for _, ev := range tel.Sink().Events() {
		g.EventCounts[ev.Name+"/"+ev.Ph]++
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	g.TraceSHA256 = hex.EncodeToString(h.Sum(nil))
	return g
}

// TestTelemetryGolden pins everything the simulator publishes for three
// arbitrated runs: a Mirage cluster under SC-MPKI, a traditional Het-CMP
// with three OoO cores under maxSTP, and a Mirage cluster that never reaches
// its target, so the maxIntervals safety net cuts it off right after a Fair
// grant whose tenure has no interval.
func TestTelemetryGolden(t *testing.T) {
	mirage := small(apps("astar", "hmmer", "mcf"))
	mirage.HasOoO = true
	mirage.Memoize = true
	mirage.Arbiter = arbiter.NewSCMPKI()

	traditional := small(apps("hmmer", "bzip2", "mcf", "namd", "gcc"))
	traditional.HasOoO = true
	traditional.NumOoO = 3
	traditional.Arbiter = arbiter.NewMaxSTP()

	cutoff := small(apps("bzip2", "hmmer"))
	cutoff.HasOoO = true
	cutoff.Memoize = true
	cutoff.Arbiter = arbiter.NewFair()
	cutoff.IntervalCycles = 1000
	cutoff.TargetInsts = 1 << 50

	got := map[string]telemetryGolden{
		"mirage-sc-mpki":      goldenTelemetryRun(t, mirage),
		"traditional-maxstp3": goldenTelemetryRun(t, traditional),
		"mirage-fair-cutoff":  goldenTelemetryRun(t, cutoff),
	}
	b, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	path := filepath.Join("testdata", "telemetry_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/cluster -run TestTelemetryGolden -update` to create it)", err)
	}
	if !bytes.Equal(b, want) {
		t.Errorf("telemetry drifted from %s:\n--- want\n%s\n--- got\n%s", path, want, b)
	}
}
