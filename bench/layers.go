package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ino"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// The ladder: each rung times calls into one layer directly, outside the
// server, so a layer's self time is its rung minus the calls it makes into
// the rung below (README: "How the numbers add up").

// measureIters is how many iterations cluster.measure simulates per call.
const measureIters = 10

// rungs holds one pass of the ladder.
type rungs struct {
	dataflow, inorder, replay    float64 // µs per pipeline.Run
	oooMeasure, inoMeasure       float64 // µs per MeasureTrace
	inoReplay                    float64 // µs per MeasureReplay
	clusterS, clusterSelf, coreS float64
	serialS, parallelS           float64
	obsOverhead                  float64
	storeGetUS, storePutUS       float64
}

// suiteLoops are every loop trace of the generated benchmark suite.
func suiteLoops() []*program.Loop {
	var out []*program.Loop
	for _, b := range program.Suite() {
		for pi := range b.Phases {
			for li := range b.Phases[pi].Loops {
				out = append(out, &b.Phases[pi].Loops[li])
			}
		}
	}
	return out
}

// loadLats stands in for the memory hierarchy in the pipeline rung: mostly
// L1 hits, some L2, an occasional DRAM miss.
var loadLats = [...]int{2, 2, 2, 2, 2, 17, 17, 137}

// pipelineRung times pipeline.Run on every loop trace of the suite in the
// request shapes ooo and ino send: Dataflow as the OoO measures, program
// order as the InO does, and recorded order replaying the OoO's schedule.
// Each figure is the mean per call over the suite, the median of reps
// passes.
func pipelineRung(reps int, rec *recorder) (df, io, rp float64) {
	rng := xrand.NewString("bench:pipeline")
	lat := func(k int) int { return loadLats[k%len(loadLats)] }
	var reqs [3][]pipeline.Request
	for _, l := range suiteLoops() {
		t := l.Trace
		mis := func(int) bool { return rng.Bool(t.MispredictRate) }
		reqs[0] = append(reqs[0], pipeline.Request{
			Trace: t, Deps: l.Deps, Iterations: measureIters, Policy: pipeline.Dataflow,
			Width: isa.IssueWidth, Window: isa.ROBSize, ProbeSpan: ooo.ScheduleSpan,
			MispredictPenalty: isa.OoOPipelineDepth, LoadLatency: lat, Mispredicts: mis,
		})
		reqs[1] = append(reqs[1], pipeline.Request{
			Trace: t, Deps: l.Deps, Iterations: measureIters, Policy: pipeline.ProgramOrder,
			Width: isa.IssueWidth, MispredictPenalty: isa.InOPipelineDepth,
			LoadLatency: lat, Mispredicts: mis,
		})
		sched := ooo.New(mem.NewHierarchy(), rng.Fork("sched")).MeasureTrace(t, l.Deps, walkers(t, rng), measureIters).Schedule
		if sched.Replayable() {
			iters := (measureIters + sched.Span - 1) / sched.Span * sched.Span
			reqs[2] = append(reqs[2], pipeline.Request{
				Trace: t, Deps: l.Deps, Iterations: iters, Policy: pipeline.RecordedOrder,
				Order: sched.Order, ProbeSpan: sched.Span, Width: isa.IssueWidth,
				MispredictPenalty: isa.InOPipelineDepth, LoadLatency: lat, Mispredicts: mis,
			})
		}
	}
	names := [3]string{"pipeline.Run dataflow", "pipeline.Run in-order", "pipeline.Run replay"}
	var per [3][]float64
	for r := 0; r < reps; r++ {
		for k := range reqs {
			eng := pipeline.NewEngine()
			d, _ := rec.time(names[k], func() error {
				for _, req := range reqs[k] {
					eng.Run(req)
				}
				return nil
			})
			per[k] = append(per[k], us(d)/float64(max(len(reqs[k]), 1)))
		}
	}
	return median(per[0]), median(per[1]), median(per[2])
}

func walkers(t *trace.Trace, rng *xrand.Rand) []*mem.Walker {
	ws := make([]*mem.Walker, len(t.Streams))
	for i, s := range t.Streams {
		ws[i] = mem.NewWalker(s, rng.Fork(fmt.Sprintf("w%d", i)))
	}
	return ws
}

// coreRung times the core models' measurement entry points on every loop
// trace, each on a fresh memory hierarchy with fresh address walkers: OoO
// MeasureTrace, InO MeasureTrace, and InO MeasureReplay of the schedule the
// OoO just recorded.
func coreRung(reps int, rec *recorder) (oooUS, inoUS, replayUS float64) {
	loops := suiteLoops()
	var per [3][]float64
	for r := 0; r < reps; r++ {
		rng := xrand.NewString(fmt.Sprintf("bench:cores:%d", r))
		var tot [3]time.Duration
		var n [3]int
		timed := func(k int, f func()) {
			start := time.Now()
			f()
			tot[k] += time.Since(start)
			n[k]++
		}
		_, _ = rec.time("ooo/ino Measure", func() error {
			for _, l := range loops {
				h := mem.NewHierarchy()
				ws := walkers(l.Trace, rng)
				oc, ic := ooo.New(h, rng.Fork("ooo")), ino.New(h, rng.Fork("ino"))
				var res ooo.Result
				timed(0, func() { res = oc.MeasureTrace(l.Trace, l.Deps, ws, measureIters) })
				timed(1, func() { ic.MeasureTrace(l.Trace, l.Deps, ws, measureIters) })
				if res.Schedule.Replayable() {
					timed(2, func() { ic.MeasureReplay(l.Trace, l.Deps, res.Schedule, ws, measureIters) })
				}
			}
			return nil
		})
		for k := range per {
			per[k] = append(per[k], us(tot[k])/float64(max(n[k], 1)))
		}
	}
	return median(per[0]), median(per[1]), median(per[2])
}

// rungMix is the first mix of the largest cluster the sweep runs (n=8 at
// the bench scale), and the seed the sweep runs it under.
func rungMix(sc experiments.Scale) (mix []string, seed string) {
	n := slices.Max(sc.NValues)
	return core.RandomMixes(core.MixRandom, n, 1, fmt.Sprintf("sweep-n%d", n))[0], fmt.Sprintf("sw-%d-0", n)
}

// clusterRung times cluster.New + Run on the sweep's largest Mirage SC-MPKI
// configuration, instrumented as the server instruments it, and counts the
// pipeline measurements it makes.
func clusterRung(sc experiments.Scale, reps int, rec *recorder) (secs float64, oooCalls, inoCalls int64, err error) {
	mix, seed := rungMix(sc)
	var apps []*program.Benchmark
	for _, name := range mix {
		apps = append(apps, program.ByName(name))
	}
	var per []float64
	for r := 0; r < reps; r++ {
		arb, err := core.NewArbiter(core.PolicySCMPKI)
		if err != nil {
			return 0, 0, 0, err
		}
		tel := telemetry.New()
		d, err := rec.time("cluster.Run", func() error {
			cl, err := cluster.New(cluster.Config{
				Apps: apps, HasOoO: true, Memoize: true, Arbiter: arb,
				IntervalCycles: sc.IntervalCycles, TargetInsts: sc.TargetInsts,
				Seed: seed + ":" + string(core.PolicySCMPKI), Telemetry: tel,
			})
			if err != nil {
				return err
			}
			_, err = cl.Run()
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		per = append(per, d.Seconds())
		c := snapshotCounters([]*telemetry.Telemetry{tel})
		oooCalls, inoCalls = c.sum(suffix(".ooo.measures")), c.sum(suffix(".ino.measures"))
	}
	return median(per), oooCalls, inoCalls, nil
}

// runMixRung times core.RunMix on the same configuration as clusterRung.
func runMixRung(sc experiments.Scale, reps int, rec *recorder) (float64, error) {
	mix, seed := rungMix(sc)
	var per []float64
	for r := 0; r < reps; r++ {
		d, err := rec.time("core.RunMix", func() error {
			_, err := core.RunMix(context.Background(), core.Config{
				Topology: core.TopologyMirage, Benchmarks: mix, Policy: core.PolicySCMPKI,
				TargetInsts: sc.TargetInsts, IntervalCycles: sc.IntervalCycles,
				Seed: seed, Telemetry: telemetry.New(),
			})
			return err
		})
		if err != nil {
			return 0, err
		}
		per = append(per, d.Seconds())
	}
	return median(per), nil
}

// sweepRung times experiments.Reports for the sweep at the given
// parallelism, cold, instrumented as the server instruments it.
func sweepRung(sc experiments.Scale, parallel int, rec *recorder) (float64, error) {
	experiments.ResetCaches()
	sc.Name = fmt.Sprintf("%s-rung-p%d", sc.Name, parallel)
	sc.Parallel = parallel
	sc.Telemetry = telemetry.New()
	d, err := rec.time(fmt.Sprintf("experiments.Reports parallel=%d", parallel), func() error {
		_, err := experiments.Reports(context.Background(), sc, experiments.SweepIDs)
		return err
	})
	return d.Seconds(), err
}

// storeRung times Put and Get on a scratch store holding the workload's
// reply bodies, each under ops distinct keys.
func storeRung(bodies [][]byte, ops int, dir string, rec *recorder) (getUS, putUS float64, err error) {
	if len(bodies) == 0 {
		return 0, 0, errors.New("store rung: no bodies")
	}
	st, err := store.Open(filepath.Join(dir, "rung-store"), store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var puts, gets []float64
	_, err = rec.time("store.Put", func() error {
		for i := 0; i < ops; i++ {
			start := time.Now()
			if err := st.Put(fmt.Sprintf("rung-%d", i), bodies[i%len(bodies)]); err != nil {
				return err
			}
			puts = append(puts, us(time.Since(start)))
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	_, err = rec.time("store.Get", func() error {
		for i := 0; i < ops; i++ {
			start := time.Now()
			if _, ok := st.Get(fmt.Sprintf("rung-%d", i)); !ok {
				return fmt.Errorf("store rung: key %d missing", i)
			}
			gets = append(gets, us(time.Since(start)))
		}
		return nil
	})
	return median(gets), median(puts), err
}

// obsRung measures what the access log and the request trace ring cost on
// the hit path: a closed loop of memory hits against a server configured
// as miraged, and against one with Logger nil and TraceEvents -1,
// alternating twice. The result is the extra time per request, as a share
// of the bare server's.
func obsRung(sz size, dir string, rec *recorder) (float64, error) {
	p := &plan{size: sz}
	for i := 0; i < 4; i++ {
		r := &server.RunRequest{Mix: []string{program.Names()[i]}, TargetInsts: sz.warmInsts,
			IntervalCycles: sz.warmCycles, Seed: fmt.Sprintf("obs-%d", i)}
		if err := p.addRun(r); err != nil {
			return 0, err
		}
	}
	on, err := newNode(nodeConfig{dir: filepath.Join(dir, "obs-on"), noStore: true}, nil, "")
	if err != nil {
		return 0, err
	}
	defer on.close()
	off, err := newNode(nodeConfig{dir: filepath.Join(dir, "obs-off"), noStore: true, bare: true}, nil, "")
	if err != nil {
		return 0, err
	}
	defer off.close()
	lanes := newLanes(workers())
	defer closeLanes(lanes)
	rate := func(name string, n *node, order []int) (float64, error) {
		t := &target{base: n.web.url, check: func(_, status int, _ http.Header, _ []byte) bool { return status == http.StatusOK }}
		var ss []sample
		var wall time.Duration
		_, _ = rec.time(name, func() error {
			ss, wall = closedLoop(t, p.sends, order, lanes)
			return nil
		})
		if f := failures(ss); f > 0 {
			return 0, fmt.Errorf("obs rung: %d requests failed", f)
		}
		return float64(len(ss)) / wall.Seconds(), nil
	}
	for _, n := range []*node{on, off} {
		if _, err := rate("obs prefill", n, indexes(len(p.sends))); err != nil {
			return 0, err
		}
	}
	hits := make([]int, sz.obsN)
	for i := range hits {
		hits[i] = i % len(p.sends)
	}
	var onRate, offRate float64
	for i := 0; i < 2; i++ {
		r, err := rate("obs off", off, hits)
		if err != nil {
			return 0, err
		}
		offRate += r
		if r, err = rate("obs on", on, hits); err != nil {
			return 0, err
		}
		onRate += r
	}
	return offRate/onRate - 1, nil
}

// climb runs every rung once. bodies are the workload's replies, for the
// store rung.
func climb(sz size, bodies [][]byte, dir string, rec *recorder) (*rungs, error) {
	r := &rungs{}
	r.dataflow, r.inorder, r.replay = pipelineRung(sz.rungReps, rec)
	r.oooMeasure, r.inoMeasure, r.inoReplay = coreRung(sz.rungReps, rec)
	var err error
	var oooCalls, inoCalls int64
	if r.clusterS, oooCalls, inoCalls, err = clusterRung(sz.scale, sz.rungReps, rec); err != nil {
		return nil, err
	}
	pipeS := (float64(oooCalls)*r.dataflow + float64(inoCalls)*r.inorder) / 1e6
	r.clusterSelf = (r.clusterS - pipeS) / r.clusterS
	if r.coreS, err = runMixRung(sz.scale, sz.rungReps, rec); err != nil {
		return nil, err
	}
	if r.serialS, err = sweepRung(sz.scale, 1, rec); err != nil {
		return nil, err
	}
	if r.parallelS, err = sweepRung(sz.scale, 0, rec); err != nil {
		return nil, err
	}
	if r.storeGetUS, r.storePutUS, err = storeRung(bodies, 4*sz.warmKeys, dir, rec); err != nil {
		return nil, err
	}
	if r.obsOverhead, err = obsRung(sz, dir, rec); err != nil {
		return nil, err
	}
	return r, nil
}

func suffix(s string) func(string) bool {
	return func(n string) bool { return strings.HasSuffix(n, s) }
}

// coreCounter matches per-core counters "core<N>.<name>".
func coreCounter(name string) func(string) bool {
	return func(n string) bool {
		rest, ok := strings.CutPrefix(n, "core")
		if !ok {
			return false
		}
		i := strings.IndexByte(rest, '.')
		return i > 0 && strings.Trim(rest[:i], "0123456789") == "" && rest[i+1:] == name
	}
}

func sortBuckets(bs []telemetry.HistogramBucket) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].Le < bs[j].Le })
}

// layerMetrics derives every per-layer metric from the traced phase tp, its
// untraced twin up, the spans and the ladder.
func layerMetrics(w string, p *plan, e *env, up, tp *phase, rec *recorder, r *rungs) map[string]float64 {
	m := map[string]float64{
		"program.suite_ms":             ms(e.suite),
		"pipeline.dataflow_us":         r.dataflow,
		"pipeline.inorder_us":          r.inorder,
		"pipeline.replay_us":           r.replay,
		"ooo.measure_us":               r.oooMeasure,
		"ino.measure_us":               r.inoMeasure,
		"ino.replay_us":                r.inoReplay,
		"cluster.run_s":                r.clusterS,
		"cluster.self_frac":            r.clusterSelf,
		"core.runmix_s":                r.coreS,
		"core.self_frac":               (r.coreS - r.clusterS) / r.coreS,
		"experiments.sweep_serial_s":   r.serialS,
		"experiments.sweep_parallel_s": r.parallelS,
		"runner.speedup":               r.serialS / r.parallelS,
		"runner.efficiency":            r.serialS / r.parallelS / float64(runtime.GOMAXPROCS(0)),
		"server.obs_overhead_frac":     r.obsOverhead,
		"store.get_us":                 r.storeGetUS,
		"store.put_us":                 r.storePutUS,
	}

	d := tp.delta
	oooCalls, inoCalls := d.sum(suffix(".ooo.measures")), d.sum(suffix(".ino.measures"))
	m["pipeline.calls"] = float64(oooCalls + inoCalls)
	pipeS := (float64(oooCalls)*r.dataflow + float64(inoCalls)*r.inorder) / 1e6
	m["pipeline.cpu_share"] = pipeS / (float64(runtime.GOMAXPROCS(0)) * tp.wall.Seconds())
	m["server.admit_wait_ms"] = tp.admit.Quantile(0.5) / 1000
	m["store.reads"] = float64(d["server.store.hits"] + d["server.store.misses"])
	m["store.writes"] = float64(d["server.store.writes"])
	m["fleet.hedges"] = float64(d["fleet.hedges"])
	m["fleet.failovers"] = float64(d["fleet.failovers"])
	insts := d.sum(coreCounter("insts"))
	m["sim.insts"] = float64(insts)
	m["sim.migrations"] = float64(d["cluster.migrations"])
	m["sim.sc_hits"] = float64(d.sum(coreCounter("sc.hits")))
	m["sim.minsts_per_s"] = float64(insts) / tp.wall.Seconds() / 1e6

	// Telemetry retention per unit of work: per sweep on sweep-cold, per
	// hundred requests elsewhere.
	units := float64(len(tp.samples())) / 100
	if w == "sweep-cold" {
		units = float64(len(tp.closed))
	}
	m["telemetry.sink_events"] = float64(tp.events) / units
	m["telemetry.retained_mb"] = tp.heap / units

	// Cache outcomes as clients saw them.
	var okN, hits, disk float64
	for _, s := range tp.samples() {
		if s.ok {
			okN++
			switch s.cache {
			case "hit":
				hits++
			case "disk":
				disk++
			}
		}
	}
	m["server.hit_ratio"], m["server.disk_share"] = hits/okN, disk/okN

	// Spans: join each request's client, fleet, server and backend spans by
	// X-Request-ID and take self times as differences.
	spans := rec.all()
	byReq := map[string]map[string]span{}
	var backendMS, missSelfMS, hitUS, diskUS []float64
	for _, s := range spans {
		if s.req != "" && s.layer != "backend" {
			if byReq[s.req] == nil {
				byReq[s.req] = map[string]span{}
			}
			byReq[s.req][s.layer] = s
		}
		switch {
		case s.layer == "backend":
			backendMS = append(backendMS, ms(s.dur()))
			if s.parent >= 0 && rec.spans[s.parent].label == "miss" {
				missSelfMS = append(missSelfMS, ms(rec.spans[s.parent].dur()-s.dur()))
			}
		case s.layer == "server" && s.label == "hit":
			hitUS = append(hitUS, us(s.dur()))
		case s.layer == "server" && s.label == "disk":
			diskUS = append(diskUS, us(s.dur()))
		}
	}
	var httpUS, proxyUS []float64
	for _, ls := range byReq {
		c, hasC := ls["client"]
		f, hasF := ls["fleet"]
		s, hasS := ls["server"]
		switch {
		case hasC && hasF:
			httpUS = append(httpUS, us(c.dur()-f.dur()))
		case hasC && hasS:
			httpUS = append(httpUS, us(c.dur()-s.dur()))
		}
		if hasF && hasS {
			proxyUS = append(proxyUS, us(f.dur()-s.dur()))
		}
	}
	m["server.backend_ms"] = median(backendMS)
	m["server.miss_self_ms"] = median(missSelfMS)
	m["server.hit_us"] = median(hitUS)
	m["server.disk_us"] = median(diskUS)
	m["http.overhead_us"] = median(httpUS)
	m["fleet.proxy_self_us"] = median(proxyUS)

	if e.coord != nil {
		var owned, served float64
		for _, s := range tp.samples() {
			if s.shard == "" {
				continue
			}
			served++
			if owner, ok := e.coord.Ring().Owner(p.sends[s.idx].key); ok && owner == s.shard {
				owned++
			}
		}
		m["fleet.owner_share"] = owned / served
	}

	m["gen.lateness_p99_ms"] = latenessP99(tp.open)

	// Tracing's own cost, on the workload's headline number.
	if len(tp.open) > 0 {
		lim := latencyLimit[w]
		m["trace.overhead_frac"] = goodput(up.closed, up.refWall, lim)/goodput(tp.closed, tp.refWall, lim) - 1
	} else {
		m["trace.overhead_frac"] = median(latenciesMS(tp.closed))/median(latenciesMS(up.closed)) - 1
	}
	// A layer the workload does not exercise reads 0, as does a ratio
	// whose base is empty.
	for _, pl := range perLayer {
		if v := m[pl.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
			m[pl.Name] = 0
		} else {
			m[pl.Name] = v
		}
	}
	return m
}

// latenessP99 is the p99 timer overshoot of open-loop sends on idle
// connections, or the largest overshoot when too few sends support a p99.
func latenessP99(open []sample) float64 {
	var xs []float64
	for _, s := range open {
		if s.idle {
			xs = append(xs, ms(s.lateness))
		}
	}
	v, ok := percentile(xs, 0.99)
	if !ok && len(xs) > 0 {
		v = sortedCopy(xs)[len(xs)-1]
	}
	return v
}
