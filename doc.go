// Package repro is a pure-Go reproduction of "Mirage Cores: The Illusion of
// Many Out-of-order Cores Using In-order Hardware" (MICRO-50, 2017).
//
// The library lives under internal/ (see internal/core for the public entry
// points), the executables under cmd/, and runnable examples under
// examples/. This root package carries ablation benchmarks for the design
// choices DESIGN.md §5 calls out and the cost of the observability layer —
// run `go test -bench=. -benchmem`. The paper's tables and figures are
// regenerated by cmd/mirageexp; serving timings come from bench/.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitution rationale, and EXPERIMENTS.md for paper-vs-measured results.
package repro
