package pipeline

import "repro/internal/memo"

// SetMemoBudget replaces the process-wide result memo with an empty one
// charged at most budget bytes, for tests that run the simulator under
// memory pressure. It returns the new memo's generation, which each clear
// advances, and a func that puts the replaced memo back. Call both with no
// engine running.
func SetMemoBudget(budget int) (gen func() uint64, restore func()) {
	old := results
	results = memo.New[memoOwner](budget, memoSeenBuckets)
	return results.Gen, func() { results = old }
}
