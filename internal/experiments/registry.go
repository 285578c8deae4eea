// The experiment registry: one table naming every figure/table entry point
// with a uniform signature, shared by cmd/mirageexp and the miraged server
// so both render reports through the exact same code path (the byte-identity
// guarantee between `/v1/sweep` and `mirageexp -json-out` rests on it).

package experiments

import "context"

// Experiment is one registered evaluation entry point.
type Experiment struct {
	// ID is the report identifier ("Figure 7", "Table 1", ...), matching
	// Report.ID and mirageexp's -only flag.
	ID string
	// Slug is the URL-safe name the server uses ("figure-7", "table-1").
	Slug string
	// Run produces the report at the given scale. Implementations honour
	// ctx by not scheduling further simulations once it ends.
	Run func(ctx context.Context, s Scale) (*Report, error)
	// Check, when set, rejects a scale the experiment cannot report on.
	// It simulates nothing, so callers can refuse such a request before
	// admitting it; Run applies the same check first.
	Check func(s Scale) error
}

// All returns every experiment in the canonical presentation order used by
// cmd/mirageexp (papers order: tables, motivation figures, then Section 5).
// The slice is freshly allocated; callers may filter it in place.
func All() []Experiment {
	return []Experiment{
		{ID: "Table 1", Slug: "table-1", Run: Table1},
		{ID: "Table 2", Slug: "table-2", Run: func(context.Context, Scale) (*Report, error) { return Table2(), nil }},
		{ID: "Figure 1", Slug: "figure-1", Run: Figure1},
		{ID: "Figure 2", Slug: "figure-2", Run: Figure2},
		{ID: "Figure 3b", Slug: "figure-3b", Run: Figure3b},
		{ID: "Figure 5", Slug: "figure-5", Run: Figure5},
		{ID: "Figure 6", Slug: "figure-6", Run: func(_ context.Context, s Scale) (*Report, error) { return Figure6(s), nil }},
		{ID: "Figure 7", Slug: "figure-7", Run: Figure7},
		{ID: "Figure 8", Slug: "figure-8", Run: Figure8},
		{ID: "Figure 9a", Slug: "figure-9a", Run: func(context.Context, Scale) (*Report, error) { return Figure9a() }},
		{ID: "Figure 9b", Slug: "figure-9b", Run: Figure9b},
		{ID: "Figure 10", Slug: "figure-10", Run: Figure10},
		{ID: "Figure 11", Slug: "figure-11", Run: Figure11},
		{ID: "Figure 12", Slug: "figure-12", Run: Figure12},
		{ID: "Figure 13", Slug: "figure-13", Run: Figure13},
		{ID: "Figure 14", Slug: "figure-14", Run: Figure14},
		{ID: "Figure 15", Slug: "figure-15", Run: Figure15},
		{ID: "SC size", Slug: "sc-size", Run: SCSize},
		{ID: "Headline", Slug: "headline", Run: Headline, Check: headlineCheck},
	}
}

// SweepIDs are the experiments served by the /v1/sweep endpoint — the three
// reports derived from the single Figures 7/8/9b arbitrator sweep.
var SweepIDs = []string{"Figure 7", "Figure 8", "Figure 9b"}

// ByName looks an experiment up by ID or slug (both are unique).
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == name || e.Slug == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Reports runs the named experiments in registry order (names in ids may be
// IDs or slugs, in any order; duplicates collapse) and returns their reports
// in that canonical order — the same order and encoders mirageexp uses, so
// serialized output is byte-identical between the CLI and the server.
func Reports(ctx context.Context, s Scale, ids []string) ([]*Report, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		e, ok := ByName(id)
		if !ok {
			return nil, &UnknownExperimentError{Name: id}
		}
		want[e.ID] = true
	}
	var reports []*Report
	for _, e := range All() {
		if !want[e.ID] {
			continue
		}
		rep, err := e.Run(ctx, s)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// UnknownExperimentError reports a name that matches no registered
// experiment's ID or slug.
type UnknownExperimentError struct{ Name string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "experiments: unknown experiment " + e.Name
}
