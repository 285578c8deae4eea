// Command miragesim runs one CMP simulation: a workload mix on a chosen
// topology under a chosen arbitration policy, printing per-application and
// system-level statistics.
//
// Usage:
//
//	miragesim -mix hmmer,bzip2,astar,milc -topology mirage -policy SC-MPKI
//	miragesim -n 8 -topology traditional -policy Fair     (random 8-app mix)
//	miragesim -list                                        (available benchmarks)
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	mixFlag := flag.String("mix", "", "comma-separated benchmark names (default: random mix of size -n)")
	nFlag := flag.Int("n", 8, "mix size when -mix is empty (also the InO count)")
	topoFlag := flag.String("topology", "mirage", "mirage | traditional | homo-ino | homo-ooo")
	policyFlag := flag.String("policy", "", "SC-MPKI | maxSTP | SC-MPKI+maxSTP | Fair | SC-MPKI-fair | software-SC-MPKI (default: SC-MPKI on mirage, maxSTP on traditional)")
	numOoO := flag.Int("ooo", 0, "OoO core count, traditional topology only (default 1)")
	insts := flag.Int64("insts", 2_000_000, "instruction target per application")
	interval := flag.Int64("interval", 80_000, "arbitration interval in cycles")
	seed := flag.String("seed", "miragesim", "deterministic seed name")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	audit := flag.Bool("audit", false, "run the invariant audit alongside the simulation; any violation is a fatal error")
	list := flag.Bool("list", false, "list available benchmarks and exit")
	metricsOut := flag.String("metrics-out", "", "write the telemetry registry (counters, gauges, histograms) as JSON to this file")
	traceOut := flag.String("trace-out", "", "write Chrome trace_event JSON to this file (chrome://tracing, Perfetto)")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *list {
		for _, n := range program.Names() {
			b := program.ByName(n)
			fmt.Printf("%-12s %s\n", n, b.Params.Category)
		}
		return
	}

	topo, err := core.ParseTopology(*topoFlag)
	if err != nil {
		fatalf("%v", err)
	}

	var mix []string
	if *mixFlag != "" {
		for _, m := range strings.Split(*mixFlag, ",") {
			mix = append(mix, strings.TrimSpace(m))
		}
	} else {
		mix = core.RandomMixes(core.MixRandom, *nFlag, 1, *seed)[0]
	}

	var tel *telemetry.Telemetry
	if *metricsOut != "" || *traceOut != "" {
		tel = telemetry.New()
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	mr, err := core.RunMixWithBaseline(context.Background(), core.Config{
		Topology:       topo,
		Benchmarks:     mix,
		Policy:         core.Policy(*policyFlag),
		NumOoO:         *numOoO,
		TargetInsts:    *insts,
		IntervalCycles: *interval,
		Seed:           *seed,
		Parallel:       *parallel,
		Telemetry:      tel,
		Audit:          *audit,
	})
	if err != nil {
		fatalf("%v", err)
	}

	if *metricsOut != "" {
		if err := tel.WriteMetricsFile(*metricsOut); err != nil {
			fatalf("%v", err)
		}
	}
	if *traceOut != "" {
		if err := tel.WriteTraceFile(*traceOut); err != nil {
			fatalf("%v", err)
		}
	}

	var tbl stats.Table
	tbl.Title = fmt.Sprintf("%s / %s on %d applications", topo, cmp.Or(string(mr.Config.Policy), "no arbiter"), len(mix))
	tbl.Headers = []string{"app", "IPC", "speedup vs OoO", "memoized", "OoO share", "migrations"}
	for i, a := range mr.Cluster.Apps {
		memo := "-"
		if a.Insts > 0 {
			memo = stats.Pct(float64(a.MemoizedInsts) / float64(a.Insts))
		}
		share := "-"
		if a.Cycles > 0 {
			share = stats.Pct(float64(a.OoOCycles) / float64(a.Cycles))
		}
		tbl.AddRow(a.Name, stats.F(a.IPC), stats.F(a.IPC/mr.RefIPC[i]), memo, share, fmt.Sprint(a.Migrations))
	}
	fmt.Println(tbl.String())
	fmt.Printf("STP (vs Homo-OoO): %.2f\n", mr.STP)
	fmt.Printf("OoO active:        %s of wall cycles\n", stats.Pct(mr.OoOActiveFrac))
	fmt.Printf("energy:            %.2e pJ\n", mr.EnergyPJ)
	fmt.Printf("area:              %.1f mm^2\n", mr.AreaMM2)
	fmt.Printf("migrations:        %d (bus transfer %d cycles)\n",
		mr.Cluster.Migrations, mr.Cluster.BusTransferCycles)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "miragesim: "+format+"\n", args...)
	os.Exit(1)
}
