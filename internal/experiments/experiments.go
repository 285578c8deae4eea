// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 plus the motivation figures of Section 2). Each
// ExperimentN function returns a Report: named series of rows that print as
// a text table matching the figure's axes. The cmd/mirageexp binary and the
// repository's benchmark harness both drive these entry points.
//
// Absolute magnitudes depend on the synthetic workload substitution
// (DESIGN.md §2); the assertions the test suite makes are about shape:
// orderings, ratios and crossover points the paper reports.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Scale sets how big the simulated runs are. Quick keeps every experiment
// in CI-friendly time; Full is closer to the paper's operating point.
type Scale struct {
	Name           string
	TargetInsts    int64
	IntervalCycles int64
	// MixesPerPoint is how many workload mixes are averaged per data point.
	MixesPerPoint int
	// NValues are the InO-per-OoO cluster sizes swept (Figures 6-9, 13).
	NValues []int
	// TimelineIntervals is the length of timeline case studies (Figs 5/10).
	TimelineIntervals int
	// Parallel bounds how many simulations an experiment runs concurrently:
	// 0 (the default) uses runtime.GOMAXPROCS, 1 forces serial execution,
	// larger values cap the worker pool. Every experiment produces
	// bit-identical reports at any setting (DESIGN.md §8); only wall-clock
	// time changes.
	Parallel int
	// Telemetry, when non-nil, instruments every simulation the experiments
	// launch; each run publishes into it once, when it ends. All runs share
	// the registry, so counters are harness totals. With Parallel > 1
	// counters still accumulate race-free, but snapshot gauges and the
	// order of trace events reflect whichever run finished last — see
	// DESIGN.md §8.
	Telemetry *telemetry.Telemetry
	// Audit threads the invariant audit (DESIGN.md §11) through every
	// simulation the experiments launch; a violation fails the experiment.
	Audit bool
}

// TinyScale runs every experiment in well under a second. It exists for
// serving smoke and load tests (mirageload's sweep traffic), where the
// point is exercising the serving layer, not producing meaningful curves.
var TinyScale = Scale{
	Name:              "tiny",
	TargetInsts:       150_000,
	IntervalCycles:    15_000,
	MixesPerPoint:     1,
	NValues:           []int{2},
	TimelineIntervals: 20,
}

// QuickScale runs every experiment in seconds-to-minutes.
var QuickScale = Scale{
	Name:              "quick",
	TargetInsts:       2_000_000,
	IntervalCycles:    40_000,
	MixesPerPoint:     2,
	NValues:           []int{4, 8, 12, 16},
	TimelineIntervals: 120,
}

// FullScale runs every experiment at the largest size.
var FullScale = Scale{
	Name:              "full",
	TargetInsts:       6_000_000,
	IntervalCycles:    80_000,
	MixesPerPoint:     4,
	NValues:           []int{4, 8, 12, 16},
	TimelineIntervals: 300,
}

// Scales returns the named scales mirageexp's -scale flag and miraged's
// requests select from, keyed by Name. The map is a fresh copy the caller
// may extend.
func Scales() map[string]Scale {
	return map[string]Scale{
		TinyScale.Name:  TinyScale,
		QuickScale.Name: QuickScale,
		FullScale.Name:  FullScale,
	}
}

// baseConfig is the core.Config every experiment run starts from. Its
// Parallel is 1: an experiment fans its own runs out on s.Parallel workers,
// so the Compare or RunMixWithBaseline inside one job stays serial instead
// of starting a second pool per job.
func (s Scale) baseConfig(seed string) core.Config {
	return core.Config{
		TargetInsts:    s.TargetInsts,
		IntervalCycles: s.IntervalCycles,
		Seed:           seed,
		Parallel:       1,
		Telemetry:      s.Telemetry,
		Audit:          s.Audit,
	}
}

// Report is a printable experiment result.
type Report struct {
	ID    string // "Figure 7", "Table 1", ...
	Notes string
	Table stats.Table
}

// String renders the report.
func (r *Report) String() string {
	s := r.Table.String()
	if r.Notes != "" {
		s += "note: " + r.Notes + "\n"
	}
	return s
}

// reportJSON is the machine-readable shape of a Report: the table flattened
// so runs diff cleanly and feed trajectory tooling.
type reportJSON struct {
	ID      string     `json:"id"`
	Notes   string     `json:"notes,omitempty"`
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers,omitempty"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON encodes the report as a flat, diffable object.
func (r *Report) MarshalJSON() ([]byte, error) {
	rows := r.Table.Rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(reportJSON{
		ID:      r.ID,
		Notes:   r.Notes,
		Title:   r.Table.Title,
		Headers: r.Table.Headers,
		Rows:    rows,
	})
}

// WriteJSON writes the report's JSON encoding, indented, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteReportsJSON writes a slice of reports as one indented JSON array —
// the diffable counterpart of mirageexp's text output.
func WriteReportsJSON(w io.Writer, reports []*Report) error {
	if reports == nil {
		reports = []*Report{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(reports)
}

// point is one line-up entry averaged over a group's mixes.
type point struct {
	stp       float64 // relative to Homo-OoO
	energy    float64 // relative to Homo-OoO
	oooActive float64 // fraction of wall cycles
}

// add accumulates one mix's result, with energy relative to eOoO.
func (p *point) add(mr *core.MixResult, eOoO float64) {
	p.stp += mr.STP
	p.energy += mr.EnergyPJ / eOoO
	p.oooActive += mr.OoOActiveFrac
}

// mean divides the accumulated sums by the group's mix count.
func (p point) mean(k float64) point {
	return point{stp: p.stp / k, energy: p.energy / k, oooActive: p.oooActive / k}
}

// gridPoint is one group of a compareGrid: Homo-InO and every arm of the
// line-up, averaged over the group's mixes.
type gridPoint struct {
	homoInO point
	arms    map[core.Policy]point
}

// runGrid runs one job per (group, mix) cell of groups on the scale's
// worker pool and returns the results grouped like groups. seed names each
// cell's job and is handed to run. Every cell owns its seed, so results are
// scheduling-independent, and each group comes back in mix order, so
// averages accumulated over it are bit-identical at any parallelism.
func runGrid[T any](ctx context.Context, s Scale, groups [][][]string, seed func(g, mi int) string, run func(g int, mix []string, seed string) (T, error)) ([][]T, error) {
	type cell struct {
		g    int
		mix  []string
		seed string
	}
	var cells []cell
	for g, mixes := range groups {
		for mi, mix := range mixes {
			cells = append(cells, cell{g: g, mix: mix, seed: seed(g, mi)})
		}
	}
	flat, err := runner.Map(ctx, s.Parallel, cells,
		func(_ int, c cell) string { return "grid/" + c.seed },
		func(_ int, c cell) (T, error) { return run(c.g, c.mix, c.seed) })
	if err != nil {
		return nil, err
	}
	out := make([][]T, len(groups))
	for g, mixes := range groups {
		out[g], flat = flat[:len(mixes)], flat[len(mixes):]
	}
	return out, nil
}

// compareGrid runs core.Compare with the line-up set on every cell of
// groups and averages each group over its mixes, relative to Homo-OoO.
// Section 5 reports every configuration this way, and Figures 7-9b, 11
// and 13 are built on it.
func compareGrid(ctx context.Context, s Scale, groups [][][]string, seed func(g, mi int) string, set []core.Arm) ([]gridPoint, error) {
	cmps, err := runGrid(ctx, s, groups, seed, func(_ int, mix []string, seed string) (*core.Comparison, error) {
		return core.Compare(context.Background(), mix, s.baseConfig(seed), set)
	})
	if err != nil {
		return nil, err
	}
	points := make([]gridPoint, len(cmps))
	for g, group := range cmps {
		var inO point
		arms := make([]point, len(set))
		for _, cmp := range group {
			eOoO := cmp.HomoOoO.EnergyPJ
			inO.add(cmp.HomoInO, eOoO)
			for ai, arm := range set {
				arms[ai].add(cmp.ByPolicy[arm.Policy], eOoO)
			}
		}
		k := float64(len(group))
		points[g] = gridPoint{homoInO: inO.mean(k), arms: make(map[core.Policy]point, len(set))}
		for ai, arm := range set {
			points[g].arms[arm.Policy] = arms[ai].mean(k)
		}
	}
	return points, nil
}

// sweepResult caches the Figures 7/8/9b sweep so one simulation pass feeds
// all three reports. It is indexed like Scale.NValues.
type sweepResult []gridPoint

// sweepCache's abandon grace lets a caller whose context ends mid-sweep
// still harvest the flight's partial-result error (*runner.Canceled with
// completed/total counts) instead of a bare context error — the server's
// 504 detail rides on it — while keeping abandonment latency well under
// the 100ms bound the e2e cancellation test enforces.
var sweepCache = runner.Cache[string, sweepResult]{AbandonGrace: 40 * time.Millisecond}

// ResetCaches drops every memoized simulation result the experiment layer
// holds (the sweep, per-benchmark profile and CPI caches) and the
// process-wide memos beneath it (memo.Reset). The determinism tests call it
// between serial and parallel passes so the second pass recomputes instead
// of trivially replaying the first; long-lived harnesses can call it to
// bound memory.
func ResetCaches() {
	sweepCache.Reset()
	profileCache.Reset()
	cpiCache.Reset()
	memo.Reset()
}

// runSweep simulates the arbitrator line-up across cluster sizes: one
// compareGrid whose groups are the cluster sizes. The sweep is memoized
// through a singleflight cache keyed by every scale knob that changes the
// result; the flight runs under a detached context so concurrent callers
// (CLI + several server requests) share one pass, and only when every
// caller abandons it does the sweep stop scheduling jobs.
func runSweep(ctx context.Context, s Scale) (sweepResult, error) {
	key := fmt.Sprintf("%s/%d/%d/%d/%v", s.Name, s.TargetInsts, s.IntervalCycles, s.MixesPerPoint, s.NValues)
	res, _, err := sweepCache.DoContext(ctx, key, func(fctx context.Context) (sweepResult, error) {
		groups := make([][][]string, len(s.NValues))
		for i, n := range s.NValues {
			groups[i] = core.RandomMixes(core.MixRandom, n, s.MixesPerPoint, fmt.Sprintf("sweep-n%d", n))
		}
		return compareGrid(fctx, s, groups,
			func(g, mi int) string { return fmt.Sprintf("sw-%d-%d", s.NValues[g], mi) },
			core.ArbitratorSet)
	})
	return res, err
}

// Figure7 reports STP relative to a Homo-OoO CMP for each arbitrator across
// cluster sizes (the throughput-aware arbitration comparison).
func Figure7(ctx context.Context, s Scale) (*Report, error) {
	sw, err := runSweep(ctx, s)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "Figure 7",
		Notes: "STP relative to Homo-OoO; paper shape: Homo-InO < maxSTP < SC-MPKI ~= SC-MPKI+maxSTP",
	}
	r.Table.Title = "Figure 7: STP relative to Homo-OoO vs InO cores per OoO"
	r.Table.Headers = []string{"n", "Homo-InO", "SC-MPKI", "SC-MPKI+maxSTP", "maxSTP"}
	for i, n := range s.NValues {
		r.Table.AddRow(fmt.Sprint(n),
			stats.Pct(sw[i].homoInO.stp),
			stats.Pct(sw[i].arms[core.PolicySCMPKI].stp),
			stats.Pct(sw[i].arms[core.PolicySCMPKIMaxSTP].stp),
			stats.Pct(sw[i].arms[core.PolicyMaxSTP].stp))
	}
	return r, nil
}

// Figure8 reports relative energy consumption for the same sweep.
func Figure8(ctx context.Context, s Scale) (*Report, error) {
	sw, err := runSweep(ctx, s)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "Figure 8",
		Notes: "energy relative to Homo-OoO; savings shrink as n grows and OoO contention rises",
	}
	r.Table.Title = "Figure 8: energy relative to Homo-OoO vs InO cores per OoO"
	r.Table.Headers = []string{"n", "Homo-InO", "SC-MPKI", "SC-MPKI+maxSTP", "maxSTP"}
	for i, n := range s.NValues {
		r.Table.AddRow(fmt.Sprint(n),
			stats.Pct(sw[i].homoInO.energy),
			stats.Pct(sw[i].arms[core.PolicySCMPKI].energy),
			stats.Pct(sw[i].arms[core.PolicySCMPKIMaxSTP].energy),
			stats.Pct(sw[i].arms[core.PolicyMaxSTP].energy))
	}
	return r, nil
}

// Figure9b reports the fraction of cycles the OoO was active per arbitrator
// and cluster size.
func Figure9b(ctx context.Context, s Scale) (*Report, error) {
	sw, err := runSweep(ctx, s)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "Figure 9b",
		Notes: "SC-MPKI powers the OoO down when no memoization is pending; maxSTP never does",
	}
	r.Table.Title = "Figure 9b: %% cycles the OoO was active"
	r.Table.Headers = []string{"n", "SC-MPKI", "SC-MPKI+maxSTP", "maxSTP"}
	for i, n := range s.NValues {
		r.Table.AddRow(fmt.Sprint(n),
			stats.Pct(sw[i].arms[core.PolicySCMPKI].oooActive),
			stats.Pct(sw[i].arms[core.PolicySCMPKIMaxSTP].oooActive),
			stats.Pct(sw[i].arms[core.PolicyMaxSTP].oooActive))
	}
	return r, nil
}

// headlineCheck rejects a scale whose sweep has no 8:1 point, the one the
// headline reports, before anything is simulated.
func headlineCheck(s Scale) error {
	if !slices.Contains(s.NValues, 8) {
		return fmt.Errorf("headline: scale %q does not sweep n=8", s.Name)
	}
	return nil
}

// Headline reports the abstract's numbers for the 8:1 configuration plus
// the scaling knee where OoO starvation saturates.
func Headline(ctx context.Context, s Scale) (*Report, error) {
	if err := headlineCheck(s); err != nil {
		return nil, err
	}
	sw, err := runSweep(ctx, s)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "Headline",
		Notes: "paper: 84% of 8-OoO performance, ~55% energy saving, ~25% area saving; knee near 12:1"}
	r.Table.Title = "Headline: Mirage 8:1 vs Homo-OoO (paper: 84% perf, 45% energy, 74% area)"
	r.Table.Headers = []string{"metric", "Mirage(SC-MPKI)", "paper"}
	p8 := sw[slices.Index(s.NValues, 8)].arms[core.PolicySCMPKI]
	area := core.Area(core.TopologyMirage, 8) / core.Area(core.TopologyHomoOoO, 8)
	r.Table.AddRow("performance", stats.Pct(p8.stp), "84%")
	r.Table.AddRow("energy", stats.Pct(p8.energy), "45%")
	r.Table.AddRow("area", stats.Pct(area), "74%")
	// Scaling knee: first n where the SC-MPKI arbitrator's OoO is active
	// nearly all the time (starvation sets in).
	knee := s.NValues[len(s.NValues)-1]
	for i, n := range s.NValues {
		if sw[i].arms[core.PolicySCMPKI].oooActive > 0.95 {
			knee = n
			break
		}
	}
	r.Table.AddRow("scaling knee (n)", fmt.Sprint(knee), "12")
	return r, nil
}
