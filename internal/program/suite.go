// Suite definition: the 26 SPEC-CPU2006-named benchmarks from Table 1 with
// per-benchmark parameters chosen to reproduce each program's published
// microarchitectural character (ILP, MLP, branch behaviour, memoizability).
// Calibration tests in this package verify that the generated suite lands
// in the paper's HPD/LPD bands.

package program

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/branch"
)

// suiteParams returns the parameter table. HPD benchmarks get blocked
// chain layouts and/or memory-level parallelism that only dynamic
// reordering extracts; LPD benchmarks get interleaved/serial layouts,
// unpredictable branches or little exploitable ILP.
func suiteParams() []Params {
	predictable := branch.Behaviour{TakenBias: 0.85, Entropy: 0.02, PatternLen: 8}
	moderate := branch.Behaviour{TakenBias: 0.7, Entropy: 0.15, PatternLen: 12}
	unpredictable := branch.Behaviour{TakenBias: 0.55, Entropy: 0.6, PatternLen: 16}

	return []Params{
		// ------------------------- HPD category -------------------------
		{Name: "cactusADM", Category: HPD, NumPhases: 4, PhaseLen: 2_000_000, LoopsPerPhase: 3,
			TraceLenMin: 60, TraceLenMax: 90, Chains: 6, Layout: LayoutBlocked,
			FPFrac: 0.7, LoadFrac: 0.22, StoreFrac: 0.08, MemProfile: MemL2Fit, RandomAddrFrac: 0.05,
			Branch: predictable, Stability: 0.97, IrregularFrac: 0.05, AliasRate: 0.002},
		{Name: "bwaves", Category: HPD, NumPhases: 4, PhaseLen: 2_500_000, LoopsPerPhase: 3,
			TraceLenMin: 50, TraceLenMax: 80, Chains: 6, Layout: LayoutBlocked,
			FPFrac: 0.75, LoadFrac: 0.25, StoreFrac: 0.08, MemProfile: MemL2Fit, RandomAddrFrac: 0.1,
			Branch: predictable, Stability: 0.97, IrregularFrac: 0.04, AliasRate: 0.002},
		{Name: "gamess", Category: HPD, NumPhases: 5, PhaseLen: 1_500_000, LoopsPerPhase: 4,
			TraceLenMin: 40, TraceLenMax: 70, Chains: 5, Layout: LayoutBlocked,
			FPFrac: 0.6, MulFrac: 0.1, LoadFrac: 0.2, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: predictable, Stability: 0.95, IrregularFrac: 0.08, AliasRate: 0.003},
		{Name: "gromacs", Category: HPD, NumPhases: 4, PhaseLen: 2_000_000, LoopsPerPhase: 4,
			TraceLenMin: 45, TraceLenMax: 75, Chains: 5, Layout: LayoutBlocked,
			FPFrac: 0.65, LoadFrac: 0.22, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: predictable, Stability: 0.95, IrregularFrac: 0.07, AliasRate: 0.003},
		{Name: "h264ref", Category: HPD, NumPhases: 5, PhaseLen: 1_250_000, LoopsPerPhase: 4,
			TraceLenMin: 35, TraceLenMax: 60, Chains: 5, Layout: LayoutBlocked,
			FPFrac: 0.1, MulFrac: 0.15, LoadFrac: 0.3, StoreFrac: 0.1, MemProfile: MemL2Fit, RandomAddrFrac: 0.1,
			Branch: moderate, Stability: 0.92, IrregularFrac: 0.1, AliasRate: 0.01},
		{Name: "hmmer", Category: HPD, NumPhases: 1, PhaseLen: 4_000_000, LoopsPerPhase: 3,
			TraceLenMin: 60, TraceLenMax: 100, Chains: 8, Layout: LayoutBlocked,
			FPFrac: 0.05, MulFrac: 0.1, LoadFrac: 0.25, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: predictable, Stability: 0.98, IrregularFrac: 0.02, AliasRate: 0.001},
		{Name: "leslie3d", Category: HPD, NumPhases: 4, PhaseLen: 2_000_000, LoopsPerPhase: 3,
			TraceLenMin: 55, TraceLenMax: 85, Chains: 6, Layout: LayoutBlocked,
			FPFrac: 0.7, LoadFrac: 0.24, StoreFrac: 0.08, MemProfile: MemL2Fit, RandomAddrFrac: 0.05,
			Branch: predictable, Stability: 0.96, IrregularFrac: 0.05, AliasRate: 0.002},
		{Name: "libquantum", Category: HPD, NumPhases: 1, PhaseLen: 4_000_000, LoopsPerPhase: 2,
			TraceLenMin: 30, TraceLenMax: 50, Chains: 4, Layout: LayoutBlocked,
			FPFrac: 0.0, LoadFrac: 0.35, StoreFrac: 0.15, MemProfile: MemBound, RandomAddrFrac: 0.0,
			Branch: predictable, Stability: 0.98, IrregularFrac: 0.02, AliasRate: 0.001},
		{Name: "mcf", Category: HPD, NumPhases: 5, PhaseLen: 1_500_000, LoopsPerPhase: 4,
			TraceLenMin: 30, TraceLenMax: 55, Chains: 6, Layout: LayoutBlocked,
			FPFrac: 0.0, LoadFrac: 0.3, StoreFrac: 0.08, MemProfile: MemBound, RandomAddrFrac: 0.5,
			// mcf: the OoO wins via MLP around irregular long-latency loads,
			// but those same loads make its schedules unstable (Section 2.2).
			Branch: moderate, Stability: 0.45, IrregularFrac: 0.3, AliasRate: 0.03},
		{Name: "milc", Category: HPD, NumPhases: 4, PhaseLen: 2_000_000, LoopsPerPhase: 3,
			TraceLenMin: 50, TraceLenMax: 80, Chains: 6, Layout: LayoutBlocked,
			FPFrac: 0.6, LoadFrac: 0.28, StoreFrac: 0.1, MemProfile: MemBound, RandomAddrFrac: 0.05,
			Branch: predictable, Stability: 0.95, IrregularFrac: 0.05, AliasRate: 0.002},
		{Name: "povray", Category: HPD, NumPhases: 5, PhaseLen: 1_250_000, LoopsPerPhase: 4,
			TraceLenMin: 40, TraceLenMax: 65, Chains: 5, Layout: LayoutBlocked,
			FPFrac: 0.55, MulFrac: 0.1, LoadFrac: 0.2, StoreFrac: 0.08, MemProfile: MemL1Fit,
			Branch: moderate, Stability: 0.9, IrregularFrac: 0.12, AliasRate: 0.008},
		{Name: "tonto", Category: HPD, NumPhases: 4, PhaseLen: 1_750_000, LoopsPerPhase: 4,
			TraceLenMin: 45, TraceLenMax: 75, Chains: 5, Layout: LayoutBlocked,
			FPFrac: 0.6, LoadFrac: 0.22, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: predictable, Stability: 0.94, IrregularFrac: 0.08, AliasRate: 0.004},
		{Name: "zeusmp", Category: HPD, NumPhases: 4, PhaseLen: 2_000_000, LoopsPerPhase: 3,
			TraceLenMin: 55, TraceLenMax: 85, Chains: 6, Layout: LayoutBlocked,
			FPFrac: 0.65, LoadFrac: 0.24, StoreFrac: 0.09, MemProfile: MemL2Fit, RandomAddrFrac: 0.05,
			Branch: predictable, Stability: 0.96, IrregularFrac: 0.05, AliasRate: 0.002},

		// ------------------------- LPD category -------------------------
		{Name: "GemsFDTD", Category: LPD, NumPhases: 2, PhaseLen: 2_000_000, LoopsPerPhase: 3,
			TraceLenMin: 50, TraceLenMax: 80, Chains: 6, Layout: LayoutInterleaved,
			FPFrac: 0.6, LoadFrac: 0.2, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: predictable, Stability: 0.95, IrregularFrac: 0.06, AliasRate: 0.003},
		{Name: "astar", Category: LPD, NumPhases: 3, PhaseLen: 1_250_000, LoopsPerPhase: 5,
			TraceLenMin: 25, TraceLenMax: 45, Chains: 3, Layout: LayoutInterleaved,
			FPFrac: 0.05, LoadFrac: 0.3, StoreFrac: 0.08, MemProfile: MemL1Fit, RandomAddrFrac: 0.2,
			// astar: data-dependent branches, inherently unmemoizable.
			Branch: unpredictable, Stability: 0.15, IrregularFrac: 0.55, AliasRate: 0.05},
		{Name: "bzip2", Category: LPD, NumPhases: 5, PhaseLen: 900_000, LoopsPerPhase: 3,
			TraceLenMin: 35, TraceLenMax: 60, Chains: 4, Layout: LayoutInterleaved,
			// bzip2: long stable loops separated by sharp phase changes
			// (the Figure 5 case study).
			FPFrac: 0.0, MulFrac: 0.05, LoadFrac: 0.28, StoreFrac: 0.12, MemProfile: MemL1Fit,
			Branch: moderate, Stability: 0.96, IrregularFrac: 0.06, AliasRate: 0.004},
		{Name: "calculix", Category: LPD, NumPhases: 2, PhaseLen: 1_750_000, LoopsPerPhase: 4,
			TraceLenMin: 45, TraceLenMax: 70, Chains: 5, Layout: LayoutInterleaved,
			FPFrac: 0.55, LoadFrac: 0.22, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: predictable, Stability: 0.93, IrregularFrac: 0.08, AliasRate: 0.004},
		{Name: "dealII", Category: LPD, NumPhases: 3, PhaseLen: 1_250_000, LoopsPerPhase: 4,
			TraceLenMin: 40, TraceLenMax: 65, Chains: 4, Layout: LayoutInterleaved,
			FPFrac: 0.45, LoadFrac: 0.25, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: moderate, Stability: 0.9, IrregularFrac: 0.12, AliasRate: 0.006},
		{Name: "gcc", Category: LPD, NumPhases: 8, PhaseLen: 450_000, LoopsPerPhase: 5,
			TraceLenMin: 25, TraceLenMax: 45, Chains: 3, Layout: LayoutInterleaved,
			// gcc: schedules repeat only over sub-million-cycle windows —
			// rapid phase turnover makes memoization go stale fast
			// (the ping-pong case for the ΔSC-MPKI decay factor).
			FPFrac: 0.0, LoadFrac: 0.3, StoreFrac: 0.12, MemProfile: MemL1Fit, RandomAddrFrac: 0.1,
			Branch: moderate, Stability: 0.85, IrregularFrac: 0.25, AliasRate: 0.01},
		{Name: "gobmk", Category: LPD, NumPhases: 4, PhaseLen: 750_000, LoopsPerPhase: 5,
			TraceLenMin: 25, TraceLenMax: 45, Chains: 3, Layout: LayoutInterleaved,
			FPFrac: 0.0, LoadFrac: 0.26, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: unpredictable, Stability: 0.4, IrregularFrac: 0.4, AliasRate: 0.02},
		{Name: "namd", Category: LPD, NumPhases: 1, PhaseLen: 4_000_000, LoopsPerPhase: 3,
			TraceLenMin: 50, TraceLenMax: 80, Chains: 6, Layout: LayoutInterleaved,
			FPFrac: 0.6, MulFrac: 0.1, LoadFrac: 0.22, StoreFrac: 0.08, MemProfile: MemL1Fit,
			Branch: predictable, Stability: 0.97, IrregularFrac: 0.03, AliasRate: 0.002},
		{Name: "omnetpp", Category: LPD, NumPhases: 4, PhaseLen: 900_000, LoopsPerPhase: 5,
			TraceLenMin: 25, TraceLenMax: 45, Chains: 3, Layout: LayoutInterleaved,
			FPFrac: 0.0, LoadFrac: 0.32, StoreFrac: 0.1, MemProfile: MemL1Fit, RandomAddrFrac: 0.2,
			Branch: moderate, Stability: 0.7, IrregularFrac: 0.25, AliasRate: 0.015},
		{Name: "perlbench", Category: LPD, NumPhases: 4, PhaseLen: 900_000, LoopsPerPhase: 5,
			TraceLenMin: 30, TraceLenMax: 50, Chains: 3, Layout: LayoutInterleaved,
			FPFrac: 0.0, LoadFrac: 0.28, StoreFrac: 0.12, MemProfile: MemL1Fit,
			Branch: moderate, Stability: 0.8, IrregularFrac: 0.2, AliasRate: 0.01},
		{Name: "sjeng", Category: LPD, NumPhases: 3, PhaseLen: 1_000_000, LoopsPerPhase: 5,
			TraceLenMin: 25, TraceLenMax: 45, Chains: 3, Layout: LayoutInterleaved,
			FPFrac: 0.0, LoadFrac: 0.24, StoreFrac: 0.08, MemProfile: MemL1Fit,
			Branch: unpredictable, Stability: 0.5, IrregularFrac: 0.35, AliasRate: 0.02},
		{Name: "wrf", Category: LPD, NumPhases: 2, PhaseLen: 1_750_000, LoopsPerPhase: 4,
			TraceLenMin: 45, TraceLenMax: 75, Chains: 5, Layout: LayoutInterleaved,
			FPFrac: 0.55, LoadFrac: 0.2, StoreFrac: 0.1, MemProfile: MemL1Fit,
			Branch: predictable, Stability: 0.93, IrregularFrac: 0.08, AliasRate: 0.004},
		{Name: "xalancbmk", Category: LPD, NumPhases: 4, PhaseLen: 900_000, LoopsPerPhase: 5,
			TraceLenMin: 25, TraceLenMax: 45, Chains: 3, Layout: LayoutInterleaved,
			FPFrac: 0.0, LoadFrac: 0.3, StoreFrac: 0.1, MemProfile: MemL1Fit, RandomAddrFrac: 0.15,
			Branch: moderate, Stability: 0.75, IrregularFrac: 0.22, AliasRate: 0.012},
	}
}

// suiteOnce guards the lazily generated suite: experiment jobs resolve
// benchmarks from concurrent goroutines (internal/runner), so generation
// must happen exactly once. Generation is deterministic (each benchmark
// seeds its own xrand stream from its name), so which goroutine wins the
// race to generate changes nothing. The *Benchmark values are shared and
// treated as immutable by every simulation layer. suiteList keeps the
// parameter table's order and suiteIndex finds a benchmark by name.
var (
	suiteOnce  sync.Once
	suiteList  []*Benchmark
	suiteIndex map[string]*Benchmark
)

// suiteNames holds the sorted names of the whole suite and of each
// category. Built from the parameter table alone, it generates nothing.
var suiteNames = sync.OnceValue(func() (names struct {
	all   []string
	byCat map[Category][]string
}) {
	names.byCat = map[Category][]string{}
	for _, p := range suiteParams() {
		names.all = append(names.all, p.Name)
		names.byCat[p.Category] = append(names.byCat[p.Category], p.Name)
	}
	sort.Strings(names.all)
	for _, ns := range names.byCat {
		sort.Strings(ns)
	}
	return names
})

func generateSuite() {
	suiteOnce.Do(func() {
		params := suiteParams()
		suiteList = make([]*Benchmark, len(params))
		suiteIndex = make(map[string]*Benchmark, len(params))
		for i, p := range params {
			suiteList[i] = Generate(p)
			suiteIndex[p.Name] = suiteList[i]
		}
	})
}

// Suite generates (and caches) the full benchmark suite. Safe for
// concurrent use.
func Suite() []*Benchmark {
	generateSuite()
	return slices.Clone(suiteList)
}

// ByName returns the named benchmark, or nil.
func ByName(name string) *Benchmark {
	generateSuite()
	return suiteIndex[name]
}

// Names returns the suite's benchmark names, sorted.
func Names() []string { return slices.Clone(suiteNames().all) }

// ByCategory returns the names in the given category, sorted.
func ByCategory(c Category) []string { return slices.Clone(suiteNames().byCat[c]) }
