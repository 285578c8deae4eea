package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/xrand"
)

// benchScale is sweep-cold's sweep: the paper's Figure 7/8/9b line-up over
// n = {4, 8} like the quick scale, shrunk until five cold sweeps fit in one
// ten-second run on a 2-CPU box (about 1.7 s each).
var benchScale = experiments.Scale{
	Name:           "bench",
	TargetInsts:    200_000,
	IntervalCycles: 20_000,
	MixesPerPoint:  2,
	NValues:        []int{4, 8},
}

// size is how much work each workload does in one run.
type size struct {
	scale      experiments.Scale // sweep-cold's sweep and the experiments rungs
	sweeps     int               // sweep-cold: cold sweeps per phase
	runs       int               // run-cold: /v1/run requests per phase
	runInsts   int64             // run-cold: target_insts per request
	warmKeys   int               // warm: distinct keys simulated at set-up
	warmInsts  int64             // warm: target_insts per key
	warmCycles int64             // warm: interval_cycles per key
	rate       float64           // warm: open-loop requests per second
	openFor    time.Duration     // warm: open-loop length
	closedN    int               // warm: closed-loop requests
	setups     int               // set-ups per run; setup_s is their median
	obsN       int               // obs rung: closed-loop requests per config
	rungReps   int               // rung repetitions; rungs report the median
	spans      int               // traced pass: span buffer capacity
}

// sizeFor scales the workloads to a run of the given length. Every loop
// does a fixed amount of work per second of run length rather than running
// until a deadline: a faster server then finishes sooner instead of doing
// more work, which keeps every count, digest and maxrss_mb comparable
// between commits and between faster and slower moments of the host.
func sizeFor(seconds float64, short bool) size {
	if short {
		sc := experiments.TinyScale
		sc.Name = "tinybench"
		return size{
			scale: sc, sweeps: 2, runs: 3, runInsts: 20_000,
			warmKeys: 4, warmInsts: 20_000, warmCycles: 10_000, rate: 200,
			openFor: 200 * time.Millisecond, closedN: 2000,
			setups: 3, obsN: 500, rungReps: 1, spans: 1 << 14,
		}
	}
	return size{
		scale:     benchScale,
		sweeps:    max(3, int(math.Round(seconds/2))),
		runs:      max(12, int(math.Round(12*seconds))),
		runInsts:  60_000,
		warmKeys:  64,
		warmInsts: 20_000,
		// The keys' contents do not matter to warm serving; a short
		// interval keeps set-up's 64 simulations cheap.
		warmCycles: 10_000,
		rate:       1000,
		openFor:    time.Duration(0.6 * seconds * float64(time.Second)),
		closedN:    int(4000 * seconds),
		setups:     3,
		obsN:       8000,
		rungReps:   3,
		spans:      1 << 18,
	}
}

// request is one pre-encoded API call.
type request struct {
	path string
	body []byte
	key  string             // canonical job key the server caches the reply under
	run  *server.RunRequest // nil for sweeps
}

// plan is everything a workload sends in one phase, generated from the seed
// before any timing starts. The program under test sees only these inputs.
type plan struct {
	workload string
	seed     int64
	size     size
	// sweep-cold: one registered scale per sweep, each a distinct name so
	// every sweep misses every cache.
	scales map[string]experiments.Scale
	// sends are the sweeps (sweep-cold), the runs (run-cold) or the warm
	// key set that set-up simulates (serve-warm, fleet-warm).
	sends []request
	// warm traffic: key indexes of the open-loop requests with their due
	// times, and of the closed loop.
	open     []int
	arrivals []time.Duration
	closed   []int
}

// runShapes is one block of the run-cold schedule: equal thirds of one-,
// two- and three-app mixes, Mirage and traditional, with policies from the
// paper's line-up. Blocks repeat with their order shuffled, so every prefix
// of the schedule has the same cost profile and p50 falls in the middle of
// the two-app class rather than between classes.
var runShapes = []struct {
	apps             int
	topology, policy string
}{
	{1, "mirage", "SC-MPKI"},
	{1, "traditional", "maxSTP"},
	{2, "mirage", "SC-MPKI+maxSTP"},
	{2, "traditional", "Fair"},
	{3, "mirage", "SC-MPKI-fair"},
	{3, "traditional", "maxSTP"},
}

// zipfS is the skew of warm traffic over the key set.
const zipfS = 1.1

func makePlan(workload string, seed int64, sz size) (*plan, error) {
	p := &plan{workload: workload, seed: seed, size: sz}
	// fleet-warm replays serve-warm's traffic, so the two share a stream.
	stream := workload
	if workload == "fleet-warm" {
		stream = "serve-warm"
	}
	rng := xrand.NewString(fmt.Sprintf("bench:%s:%d", stream, seed))
	var err error
	switch workload {
	case "sweep-cold":
		err = p.sweeps()
	case "run-cold":
		err = p.runs(rng)
	case "serve-warm", "fleet-warm":
		err = p.warm(seed, rng)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// sweeps names one cold scale per sweep. The sweeps are the paper's fixed
// Figure 7/8/9b mixes, so the seed only names the keys.
func (p *plan) sweeps() error {
	p.scales = map[string]experiments.Scale{}
	for i := 0; i < p.size.sweeps; i++ {
		sc := p.size.scale
		sc.Name = fmt.Sprintf("%s-%d-%d", sc.Name, p.seed, i)
		p.scales[sc.Name] = sc
		req := server.SweepRequest{Scale: sc.Name}
		key, err := server.CanonicalSweepKey(&req, p.scales)
		if err != nil {
			return err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		p.sends = append(p.sends, request{path: "/v1/sweep", body: body, key: key})
	}
	return nil
}

func (p *plan) runs(rng *xrand.Rand) error {
	apps := newDeck(rng)
	order := make([]int, len(runShapes))
	for i := 0; i < p.size.runs; i++ {
		if i%len(runShapes) == 0 {
			shuffle(rng, order)
		}
		sh := runShapes[order[i%len(runShapes)]]
		mix := make([]string, sh.apps)
		for j := range mix {
			mix[j] = apps.deal()
		}
		r := &server.RunRequest{
			Mix: mix, Topology: sh.topology, Policy: sh.policy,
			TargetInsts: p.size.runInsts, Seed: fmt.Sprintf("rc-%d-%d", p.seed, i),
		}
		if err := p.addRun(r); err != nil {
			return err
		}
	}
	return nil
}

func (p *plan) warm(seed int64, rng *xrand.Rand) error {
	apps := newDeck(rng)
	for i := 0; i < p.size.warmKeys; i++ {
		r := &server.RunRequest{
			Mix:            []string{apps.deal()},
			TargetInsts:    p.size.warmInsts,
			IntervalCycles: p.size.warmCycles,
			Seed:           fmt.Sprintf("sw-%d-%d", seed, i),
		}
		if err := p.addRun(r); err != nil {
			return err
		}
	}
	// Rank r of the zipf law maps to key byRank[r], a seeded permutation.
	byRank := make([]int, p.size.warmKeys)
	shuffle(rng, byRank)
	cdf := make([]float64, p.size.warmKeys)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -zipfS)
		cdf[r] = total
	}
	draw := func() int {
		u := rng.Float64() * total
		return byRank[min(sort.SearchFloat64s(cdf, u), len(cdf)-1)]
	}
	n := int(p.size.rate * p.size.openFor.Seconds())
	at := 0.0
	for i := 0; i < n; i++ {
		// Poisson arrivals: independent users, exponential gaps.
		at += -math.Log(1-rng.Float64()) / p.size.rate
		p.open = append(p.open, draw())
		p.arrivals = append(p.arrivals, time.Duration(at*float64(time.Second)))
	}
	for i := 0; i < p.size.closedN; i++ {
		p.closed = append(p.closed, draw())
	}
	return nil
}

func (p *plan) addRun(r *server.RunRequest) error {
	key, err := server.CanonicalRunKey(r)
	if err != nil {
		return err
	}
	body, err := json.Marshal(r)
	if err != nil {
		return err
	}
	p.sends = append(p.sends, request{path: "/v1/run", body: body, key: key, run: r})
	return nil
}

// deck deals the suite's programs in seeded order, reshuffling when it runs
// out, so every program appears equally often, give or take one, in any
// stretch of draws. A seed then changes which keys are sent, not how much
// simulation they cost, which would otherwise move setup_s and the cold
// workloads' timings from seed to seed.
type deck struct {
	rng   *xrand.Rand
	names []string
	order []int
	next  int
}

func newDeck(rng *xrand.Rand) *deck {
	names := program.Names()
	return &deck{rng: rng, names: names, order: make([]int, len(names)), next: len(names)}
}

func (d *deck) deal() string {
	if d.next == len(d.order) {
		shuffle(d.rng, d.order)
		d.next = 0
	}
	d.next++
	return d.names[d.order[d.next-1]]
}

// shuffle fills order with a seeded permutation of its indexes.
func shuffle(rng *xrand.Rand, order []int) {
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
}

// indexes returns 0..n-1, the order that sends a list once front to back.
func indexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
