package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// value is one measured number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload.
type runRecord struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Short     bool    `json:"short,omitempty"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Valid is false when the open-loop generator ran more than 5 ms late
	// (p99): the run's open-loop latencies then measure the generator.
	Valid  bool   `json:"valid"`
	Digest string `json:"digest"`
	// HostProbeMS is the median host probe of the run. Timings are at the
	// reference speed; one measured at the host's own speed is about the
	// reported value times HostProbeMS / refProbeMS.
	HostProbeMS float64  `json:"host_probe_ms"`
	Problems    []string `json:"problems,omitempty"`
	// N is the sample count behind each latency metric.
	N       map[string]int   `json:"n,omitempty"`
	Metrics map[string]value `json:"metrics"`
}

// machine identifies where and what was measured.
type machine struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

// results is a results file: the machine and every run made on it.
type results struct {
	Machine machine     `json:"machine"`
	Runs    []runRecord `json:"runs"`
}

func thisMachine() machine {
	m := machine{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "+modified"
		}
	}
	return m
}

// appendTo adds r's runs to the results file at path, creating it. Runs
// of another machine or build are refused: one file holds one side of a
// comparison, so parent and change runs can be alternated into two files.
func (r *results) appendTo(path string) error {
	old, err := readResults(path)
	switch {
	case err == nil && old.Machine != r.Machine:
		return fmt.Errorf("%s holds runs of %+v, not %+v", path, old.Machine, r.Machine)
	case err == nil:
		r = &results{Machine: r.Machine, Runs: append(old.Runs, r.Runs...)}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	return r.write(path)
}

func (r *results) write(path string) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// resultLine is the one-line JSON result: with the traced pass off it
// carries every end-to-end metric, with it on every per-layer metric.
func resultLine(r *runRecord) ([]byte, error) {
	tab := endToEnd
	if r.Trace {
		tab = perLayer
	}
	ms := map[string]value{}
	for _, m := range tab {
		if v, ok := r.Metrics[m.Name]; ok {
			ms[m.Name] = v
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// printRun writes a run's metrics, one per line, for a human.
func printRun(w io.Writer, r *runRecord) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		extra := ""
		if k, ok := r.N[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintf(w, "%-10s %-30s %14.6g %-8s%s\n", r.Workload, n, v.Value, v.Unit, extra)
	}
	status := "ok"
	if !r.Correct {
		status = "FAILED " + strings.Join(r.Problems, "; ")
	}
	fmt.Fprintf(w, "%-10s attempted=%d failed=%d digest=%s valid=%v outputs %s\n",
		r.Workload, r.Attempted, r.Failed, r.Digest, r.Valid, status)
}

// verdict is compare's judgement of one metric on one workload: pairs won
// out of pairs run, and better, worse, unresolved or unchanged.
type verdict struct {
	Won, Pairs int
	Verdict    string
}

// judge compares the runs of one metric. A change is better only when it
// wins at least nine tenths of the pairs (ties count for neither) and its
// median beats the parent's by more than the parent's own quartile
// spread; worse when its median is worse than the bound allows and by more
// than that spread too; otherwise unresolved when the parent's spread is
// wider than the bound (unless every change run beats every parent run),
// else unchanged.
func judge(m metric, parent, change []float64) verdict {
	v := verdict{Pairs: min(len(parent), len(change))}
	for i := 0; i < v.Pairs; i++ {
		if m.gain(parent[i], change[i]) > 0 {
			v.Won++
		}
	}
	pm, cm := median(parent), median(change)
	allBetter := true
	for _, p := range parent {
		for _, c := range change {
			if m.gain(p, c) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.Pairs > 0 && float64(v.Won) >= 0.9*float64(v.Pairs) && m.gain(pm, cm) > iqr(parent):
		v.Verdict = "better"
	case m.regressed(pm, cm) && -m.gain(pm, cm) > iqr(parent):
		v.Verdict = "worse"
	case iqr(parent) > m.allowed(pm) && !allBetter:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// compareMain implements `compare parent.json change.json`. It judges
// every end-to-end metric on every workload, checks that digests and the
// sim.* counts repeat exactly, and exits 1 when anything got worse or an
// output changed. Runs are compared only within a group of one seed, run
// length and size; timings come only from runs that are correct and valid.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: miragebench compare parent.json change.json")
		return 2
	}
	parent, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	change, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("parent: %+v\nchange: %+v\n\n", parent.Machine, change.Machine)
	fmt.Printf("%-10s %-16s %-18s %-8s %-34s %-34s %-6s %s\n", "workload", "group", "metric", "unit",
		"parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	bad := false
	for _, w := range workloadNames {
		for _, g := range sharedGroups(parent.runsOf(w), change.runsOf(w)) {
			pr, cr := g.of(parent.runsOf(w)), g.of(change.runsOf(w))
			if n := skipped(pr) + skipped(cr); n > 0 {
				fmt.Printf("%-10s %-16s %d runs not correct or not valid, left out\n", w, g, n)
			}
			pu, cu := usable(pr, false), usable(cr, false)
			for _, m := range append(append([]metric(nil), endToEnd...), supplementary...) {
				if !m.appliesTo(w) {
					continue
				}
				pv, cv := values(pu, m.Name), values(cu, m.Name)
				if len(pv) == 0 || len(cv) == 0 {
					continue
				}
				v := judge(m, pv, cv)
				bad = bad || v.Verdict == "worse"
				fmt.Printf("%-10s %-16s %-18s %-8s %-34s %-34s %-6s %s\n", w, g, m.Name, m.Unit,
					spread(pv), spread(cv), fmt.Sprintf("%d/%d", v.Won, v.Pairs), v.Verdict)
			}
			pd, cd := digests(correct(pr, false)), digests(correct(cr, false))
			if len(pd) > 0 && len(cd) > 0 && !sameStrings(pd, cd) {
				bad = true
				fmt.Printf("%-10s %-16s outputs differ: digests %v vs %v\n", w, g, pd, cd)
			}
			pt, ct := correct(pr, true), correct(cr, true)
			for _, name := range []string{"sim.insts", "sim.migrations", "sim.sc_hits"} {
				pv, cv := values(pt, name), values(ct, name)
				if len(pv) > 0 && len(cv) > 0 && !sameFloats(pv, cv) {
					bad = true
					fmt.Printf("%-10s %-16s %s moved: %v vs %v\n", w, g, name, pv, cv)
				}
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// group is the runs of one workload that may be compared: same seed, same
// run length, same size.
type group struct {
	Seed    int64
	Seconds float64
	Short   bool
}

func groupOf(r runRecord) group { return group{r.Seed, r.Seconds, r.Short} }

// of returns the runs in g, in file order, so the i-th runs of two files
// that were alternated form a pair.
func (g group) of(runs []runRecord) []runRecord {
	var out []runRecord
	for _, r := range runs {
		if groupOf(r) == g {
			out = append(out, r)
		}
	}
	return out
}

func (g group) String() string {
	s := fmt.Sprintf("seed=%d/%gs", g.Seed, g.Seconds)
	if g.Short {
		s += "/short"
	}
	return s
}

// sharedGroups are the groups both sides ran, in a fixed order.
func sharedGroups(parent, change []runRecord) []group {
	have := map[group]bool{}
	for _, r := range parent {
		have[groupOf(r)] = true
	}
	seen := map[group]bool{}
	var out []group
	for _, r := range change {
		if g := groupOf(r); have[g] && !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Seconds != b.Seconds {
			return a.Seconds < b.Seconds
		}
		return !a.Short && b.Short
	})
	return out
}

// runsOf returns the runs of workload w.
func (r *results) runsOf(w string) []runRecord {
	var out []runRecord
	for _, run := range r.Runs {
		if run.Workload == w {
			out = append(out, run)
		}
	}
	return out
}

// correct returns the runs with the traced pass on or off whose outputs
// were all right; usable further requires a trusted open-loop generator.
func correct(runs []runRecord, traced bool) []runRecord {
	var out []runRecord
	for _, r := range runs {
		if r.Trace == traced && r.Correct {
			out = append(out, r)
		}
	}
	return out
}

func usable(runs []runRecord, traced bool) []runRecord {
	var out []runRecord
	for _, r := range correct(runs, traced) {
		if r.Valid {
			out = append(out, r)
		}
	}
	return out
}

// skipped counts the runs correct or usable leave out.
func skipped(runs []runRecord) int {
	return len(runs) - len(usable(runs, false)) - len(correct(runs, true))
}

func values(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func digests(runs []runRecord) []string {
	set := map[string]bool{}
	for _, r := range runs {
		set[r.Digest] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	return strings.Join(a, ",") == strings.Join(b, ",")
}

func sameFloats(a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if x != y {
				return false
			}
		}
	}
	return true
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
}
