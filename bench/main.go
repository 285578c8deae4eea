// Command miragebench is the repository's benchmark: four workloads against
// miraged built in-process exactly as cmd/miraged builds it, end-to-end
// metrics measured with tracing off, per-layer metrics from a separate
// traced pass, and a check of every reply. See README.md.
//
// Usage:
//
//	miragebench [-workload all|sweep-cold|run-cold|serve-warm|fleet-warm]
//	            [-seed 1] [-seconds 10] [-trace 0|1] [-trace-out trace.json]
//	            [-short] [-out results.json] [-workdir DIR]
//	miragebench compare parent.json change.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/program"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	short    bool
	trace    bool
	traceOut string
	workdir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var rc runConfig
	var traceFlag int
	var out string
	flag.StringVar(&rc.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&rc.seed, "seed", 1, "seed the workload's inputs are generated from (seed 2 is held out for claims)")
	flag.Float64Var(&rc.seconds, "seconds", 10, "run length each workload is sized to")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass: per-layer metrics and a Chrome trace")
	flag.StringVar(&rc.traceOut, "trace-out", "trace.json", "where the traced pass writes its Chrome trace")
	flag.BoolVar(&rc.short, "short", false, "toy sizes, for tests")
	flag.StringVar(&out, "out", "", "append this invocation's runs to a results file")
	flag.StringVar(&rc.workdir, "workdir", "", "directory for stores and logs (default: the system temp dir)")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	rc.trace = traceFlag == 1
	if rc.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if rc.workdir != "" {
		if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	if rc.workload == "all" {
		os.Exit(runAll(rc, out))
	}
	rec, err := runWorkload(rc)
	if err != nil {
		fatalf("%s: %v", rc.workload, err)
	}
	printRun(os.Stdout, rec)
	if out != "" {
		if err := (&results{Machine: thisMachine(), Runs: []runRecord{*rec}}).appendTo(out); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := resultLine(rec)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// progress notes on stderr where a run is, with the time since start.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "miragebench: %6.2fs "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

var started = time.Now()

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "miragebench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload once, each run in its own child process
// so maxrss_mb and the experiment layer's process-wide caches are the
// workload's own. Children's output goes to stderr; stdout gets the
// summary.
func runAll(rc runConfig, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	tmp, err := os.MkdirTemp(rc.workdir, "miragebench-all-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmp)
	all := &results{Machine: thisMachine()}
	failed := false
	for _, w := range workloadNames {
		part := filepath.Join(tmp, w+".json")
		args := []string{"-workload", w, "-seed", fmt.Sprint(rc.seed), "-seconds", fmt.Sprint(rc.seconds),
			"-out", part, "-workdir", tmp}
		if rc.short {
			args = append(args, "-short")
		}
		if rc.trace {
			ext := filepath.Ext(rc.traceOut)
			args = append(args, "-trace", "1", "-trace-out", strings.TrimSuffix(rc.traceOut, ext)+"."+w+ext)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "miragebench: %s: %v\n", w, err)
		}
		r, err := readResults(part)
		if err != nil {
			failed = true
			continue
		}
		all.Runs = append(all.Runs, r.Runs...)
	}
	for i := range all.Runs {
		printRun(os.Stdout, &all.Runs[i])
	}
	if out != "" {
		if err := all.appendTo(out); err != nil {
			fatalf("%v", err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runWorkload runs one workload: with the traced pass off, several
// set-ups and one measured phase; with it on, an untraced and a traced
// phase on fresh set-ups, then the ladder of rungs.
func runWorkload(rc runConfig) (*runRecord, error) {
	sz := sizeFor(rc.seconds, rc.short)
	p, err := makePlan(rc.workload, rc.seed, sz)
	if err != nil {
		return nil, err
	}
	// Generate the benchmark suite before anything is timed: miraged pays
	// it once per process, and set-up charges its cost separately.
	program.Suite()
	dir, err := os.MkdirTemp(rc.workdir, "miragebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runRecord{Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Short: rc.short,
		Trace: rc.trace, N: map[string]int{}, Metrics: map[string]value{}}
	hs := newHostSpeed()
	if rc.trace {
		err = tracedRun(rc, p, dir, r, hs)
	} else {
		err = plainRun(p, dir, r, hs)
	}
	if err != nil {
		return nil, err
	}
	r.HostProbeMS = median(hs.log)
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
	return r, nil
}

// plainRun measures the end-to-end metrics: setup_s is the median of
// several set-ups, and the last set-up serves the measured phase. Every
// timing is at the reference host speed.
func plainRun(p *plan, dir string, r *runRecord, hs *hostSpeed) (err error) {
	w := p.workload
	var setups []float64
	var e *env
	for i := 0; i < p.size.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		var took time.Duration
		f := hs.timed(func() {
			start := time.Now()
			e, err = setup(w, p, nil, dir)
			took = time.Since(start)
		})
		if err != nil {
			return err
		}
		setups = append(setups, scaled(took, f).Seconds())
		progress("%s: set-up %d of %d took %.2fs (%.2fs at the reference speed)", w, i+1, p.size.setups, took.Seconds(), setups[i])
	}
	defer func() { err = errors.Join(err, e.close()) }()
	ph := measure(w, e, p, nil, hs)
	progress("%s: measured %d requests", w, len(ph.samples()))
	account(r, w, p, e, ph, true)

	lat := latenciesMS(ph.closed)
	if len(ph.open) > 0 {
		lat = latenciesMS(ph.open)
	}
	set := func(name string, v float64) {
		m, _ := metricByName(name)
		r.Metrics[name] = value{v, m.Unit}
	}
	set("setup_s", median(setups))
	set("p50_ms", median(lat))
	r.N["p50_ms"] = len(lat)
	set("goodput_rps", goodput(ph.closed, ph.refWall, latencyLimit[w]))
	set("maxrss_mb", maxRSSMB())
	for _, tail := range []struct {
		name string
		q    float64
	}{{"p90_ms", 0.90}, {"p99_ms", 0.99}} {
		if m, _ := metricByName(tail.name); m.appliesTo(w) {
			if v, ok := percentile(lat, tail.q); ok {
				set(tail.name, v)
				r.N[tail.name] = len(lat)
			}
		}
	}
	if m, _ := metricByName("sim_minsts_per_s"); m.appliesTo(w) {
		set("sim_minsts_per_s", float64(ph.delta.sum(coreCounter("insts")))/ph.refWall.Seconds()/1e6)
	}
	set("fail_frac", float64(r.Failed)/float64(r.Attempted))
	r.Valid = latenessP99(ph.open) <= ms(maxLateness)
	return nil
}

// tracedRun measures the per-layer metrics. The untraced phase is the
// baseline for trace.overhead_frac; both phases run the same plan on fresh
// set-ups with the experiment layer's caches emptied, so they do the same
// simulation work.
func tracedRun(rc runConfig, p *plan, dir string, r *runRecord, hs *hostSpeed) error {
	w := p.workload
	e, err := setup(w, p, nil, dir)
	if err != nil {
		return err
	}
	up := measure(w, e, p, nil, hs)
	progress("%s: untraced phase done", w)
	account(r, w, p, e, up, true)
	if err := e.close(); err != nil {
		return err
	}
	experiments.ResetCaches()
	rec := newRecorder(p.size.spans)
	if e, err = setup(w, p, rec, dir); err != nil {
		return err
	}
	tp := measure(w, e, p, rec, hs)
	progress("%s: traced phase done", w)
	account(r, w, p, e, tp, false)
	// Every server has stopped once close returns, so the spans are final.
	if err := e.close(); err != nil {
		return err
	}
	bodies := tp.bodies
	if len(e.prefill) > 0 {
		bodies = e.prefill
	}
	rungs, err := climb(p.size, bodies, dir, rec)
	if err != nil {
		return err
	}
	progress("%s: rungs done", w)
	for name, v := range layerMetrics(w, p, e, up, tp, rec, rungs) {
		m, _ := metricByName(name)
		r.Metrics[name] = value{v, m.Unit}
	}
	if n := rec.dropped.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "miragebench: span buffer full, %d spans dropped\n", n)
	}
	r.Valid = latenessP99(up.open) <= ms(maxLateness) && latenessP99(tp.open) <= ms(maxLateness)
	return rec.writeChromeTrace(rc.traceOut)
}

// account adds a phase's requests, failures and output checks to the run.
// With sample set, it also checks one simulated reply against a direct
// simulation outside the server.
func account(r *runRecord, w string, p *plan, e *env, ph *phase, sample bool) {
	ss := ph.samples()
	r.Attempted += len(ss)
	r.Failed += failures(ss)
	r.Problems = append(r.Problems, ph.problems...)
	r.Failed += len(ph.problems)
	r.Digest = phaseDigest(w, e, ph)
	if sample && w != "sweep-cold" {
		body := e.prefill
		if w == "run-cold" {
			body = ph.bodies
		}
		if err := recompute(p.sends[0].run, p.sends[0].key, body[0]); err != nil {
			r.Problems = append(r.Problems, err.Error())
			r.Failed++
		}
	}
}

// maxRSSMB is this process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
