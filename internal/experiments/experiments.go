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
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
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
	// launch. All runs share the registry, so counters are harness totals.
	// With Parallel > 1 counters still accumulate race-free, but snapshot
	// gauges and trace-event interleaving reflect whichever run touched
	// them last — see DESIGN.md §8.
	Telemetry *telemetry.Telemetry
	// Audit threads the invariant audit (DESIGN.md §11) through every
	// simulation the experiments launch; a violation fails the experiment.
	Audit bool
}

// workers lowers Scale.Parallel to a runner worker count.
func (s Scale) workers() int {
	if s.Parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Parallel
}

// runMixes simulates a batch of independent configurations on the scale's
// worker pool, returning results in input order. name labels jobs in errors.
func runMixes(ctx context.Context, s Scale, name string, cfgs []core.Config) ([]*core.MixResult, error) {
	return runner.Map(ctx, s.workers(), cfgs,
		func(_ int, cfg core.Config) string { return name + "/" + cfg.Seed + ":" + string(cfg.Policy) },
		func(_ int, cfg core.Config) (*core.MixResult, error) { return core.RunMix(context.Background(), cfg) })
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

// FullScale is the default for the experiment binary.
var FullScale = Scale{
	Name:              "full",
	TargetInsts:       6_000_000,
	IntervalCycles:    80_000,
	MixesPerPoint:     4,
	NValues:           []int{4, 8, 12, 16},
	TimelineIntervals: 300,
}

func (s Scale) baseConfig(seed string) core.Config {
	return core.Config{
		TargetInsts:    s.TargetInsts,
		IntervalCycles: s.IntervalCycles,
		Seed:           seed,
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

// sweepPoint is one (n, policy) observation averaged over mixes.
type sweepPoint struct {
	stp       float64 // relative to Homo-OoO
	energy    float64 // relative to Homo-OoO
	oooActive float64 // fraction of wall cycles
}

// sweepResult caches the Figures 7/8/9b sweep so one simulation pass feeds
// all three reports.
type sweepResult struct {
	n        []int
	homoInO  []sweepPoint
	byPolicy map[core.Policy][]sweepPoint
}

// sweepCache's abandon grace lets a caller whose context ends mid-sweep
// still harvest the flight's partial-result error (*runner.Canceled with
// completed/total counts) instead of a bare context error — the server's
// 504 detail rides on it — while keeping abandonment latency well under
// the 100ms bound the e2e cancellation test enforces.
var sweepCache = runner.Cache[string, *sweepResult]{AbandonGrace: 40 * time.Millisecond}

// ResetCaches drops every memoized simulation result the experiment layer
// holds (the sweep, per-benchmark profile and CPI caches) and the
// process-wide pipeline memo beneath it. The determinism tests call it
// between serial and parallel passes so the second pass recomputes instead
// of trivially replaying the first; long-lived harnesses can call it to
// bound memory.
func ResetCaches() {
	sweepCache.Reset()
	profileCache.Reset()
	cpiCache.Reset()
	pipeline.ResetMemo()
}

// runSweep simulates the arbitrator line-up across cluster sizes. The
// (n, mix) grid is flattened into independent jobs — each owns its seed, so
// results are scheduling-independent — and the per-n averages below are
// accumulated over the collated slice in the same order the old serial loop
// used, keeping every downstream figure bit-identical at any parallelism.
// The sweep is memoized through a singleflight cache keyed by every scale
// knob that changes the result; the flight runs under a detached context so
// concurrent callers (CLI + several server requests) share one pass, and
// only when every caller abandons it does the sweep stop scheduling jobs.
func runSweep(ctx context.Context, s Scale) (*sweepResult, error) {
	key := fmt.Sprintf("%s/%d/%d/%d/%v", s.Name, s.TargetInsts, s.IntervalCycles, s.MixesPerPoint, s.NValues)
	res, _, err := sweepCache.DoContext(ctx, key, func(fctx context.Context) (*sweepResult, error) {
		type sweepJob struct {
			n, mi int
			mix   []string
		}
		var jobs []sweepJob
		for _, n := range s.NValues {
			mixes := core.RandomMixes(core.MixRandom, n, s.MixesPerPoint, fmt.Sprintf("sweep-n%d", n))
			for mi, mix := range mixes {
				jobs = append(jobs, sweepJob{n: n, mi: mi, mix: mix})
			}
		}
		cmps, err := runner.Map(fctx, s.workers(), jobs,
			func(_ int, j sweepJob) string { return fmt.Sprintf("sweep/sw-%d-%d", j.n, j.mi) },
			func(_ int, j sweepJob) (*core.Comparison, error) {
				return core.Compare(context.Background(), j.mix, s.baseConfig(fmt.Sprintf("sw-%d-%d", j.n, j.mi)), core.ArbitratorSet)
			})
		if err != nil {
			return nil, err
		}
		res := &sweepResult{byPolicy: make(map[core.Policy][]sweepPoint)}
		for ni, n := range s.NValues {
			var inO sweepPoint
			acc := map[core.Policy]*sweepPoint{}
			for _, pt := range core.ArbitratorSet {
				acc[pt.Policy] = &sweepPoint{}
			}
			for mi := 0; mi < s.MixesPerPoint; mi++ {
				cmp := cmps[ni*s.MixesPerPoint+mi]
				eOoO := cmp.HomoOoO.EnergyPJ
				inO.stp += cmp.HomoInO.STP
				inO.energy += cmp.HomoInO.EnergyPJ / eOoO
				for _, pt := range core.ArbitratorSet {
					mr := cmp.ByPolicy[pt.Policy]
					acc[pt.Policy].stp += mr.STP
					acc[pt.Policy].energy += mr.EnergyPJ / eOoO
					acc[pt.Policy].oooActive += mr.OoOActiveFrac
				}
			}
			k := float64(s.MixesPerPoint)
			res.n = append(res.n, n)
			res.homoInO = append(res.homoInO, sweepPoint{stp: inO.stp / k, energy: inO.energy / k})
			for _, pt := range core.ArbitratorSet {
				p := acc[pt.Policy]
				res.byPolicy[pt.Policy] = append(res.byPolicy[pt.Policy],
					sweepPoint{stp: p.stp / k, energy: p.energy / k, oooActive: p.oooActive / k})
			}
		}
		return res, nil
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
	for i, n := range sw.n {
		r.Table.AddRow(fmt.Sprint(n),
			stats.Pct(sw.homoInO[i].stp),
			stats.Pct(sw.byPolicy[core.PolicySCMPKI][i].stp),
			stats.Pct(sw.byPolicy[core.PolicySCMPKIMaxSTP][i].stp),
			stats.Pct(sw.byPolicy[core.PolicyMaxSTP][i].stp))
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
	for i, n := range sw.n {
		r.Table.AddRow(fmt.Sprint(n),
			stats.Pct(sw.homoInO[i].energy),
			stats.Pct(sw.byPolicy[core.PolicySCMPKI][i].energy),
			stats.Pct(sw.byPolicy[core.PolicySCMPKIMaxSTP][i].energy),
			stats.Pct(sw.byPolicy[core.PolicyMaxSTP][i].energy))
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
	for i, n := range sw.n {
		r.Table.AddRow(fmt.Sprint(n),
			stats.Pct(sw.byPolicy[core.PolicySCMPKI][i].oooActive),
			stats.Pct(sw.byPolicy[core.PolicySCMPKIMaxSTP][i].oooActive),
			stats.Pct(sw.byPolicy[core.PolicyMaxSTP][i].oooActive))
	}
	return r, nil
}

// Headline reports the abstract's numbers for the 8:1 configuration plus
// the scaling knee where OoO starvation saturates.
func Headline(ctx context.Context, s Scale) (*Report, error) {
	sw, err := runSweep(ctx, s)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "Headline",
		Notes: "paper: 84% of 8-OoO performance, ~55% energy saving, ~25% area saving; knee near 12:1"}
	r.Table.Title = "Headline: Mirage 8:1 vs Homo-OoO (paper: 84% perf, 45% energy, 74% area)"
	r.Table.Headers = []string{"metric", "Mirage(SC-MPKI)", "paper"}
	idx8 := -1
	for i, n := range sw.n {
		if n == 8 {
			idx8 = i
		}
	}
	if idx8 < 0 {
		return nil, fmt.Errorf("headline: scale does not sweep n=8")
	}
	p8 := sw.byPolicy[core.PolicySCMPKI][idx8]
	area := core.Area(core.TopologyMirage, 8) / core.Area(core.TopologyHomoOoO, 8)
	r.Table.AddRow("performance", stats.Pct(p8.stp), "84%")
	r.Table.AddRow("energy", stats.Pct(p8.energy), "45%")
	r.Table.AddRow("area", stats.Pct(area), "74%")
	// Scaling knee: first n where the SC-MPKI arbitrator's OoO is active
	// nearly all the time (starvation sets in).
	knee := sw.n[len(sw.n)-1]
	for i, n := range sw.n {
		if sw.byPolicy[core.PolicySCMPKI][i].oooActive > 0.95 {
			knee = n
			break
		}
	}
	r.Table.AddRow("scaling knee (n)", fmt.Sprint(knee), "12")
	return r, nil
}
