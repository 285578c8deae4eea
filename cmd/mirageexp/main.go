// Command mirageexp regenerates the paper's tables and figures.
//
// Usage:
//
//	mirageexp [-scale tiny|quick|full] [-only "Figure 7,Figure 8"]
//	mirageexp -only "Figure 7" -json-out reports.json -metrics-out m.json
//
// Each experiment prints a text table whose rows correspond to the figure's
// series; EXPERIMENTS.md records a reference run next to the paper's
// numbers. -json-out additionally writes the reports as a diffable JSON
// array, and -metrics-out/-trace-out instrument every simulation the
// selected experiments launch (counters accumulate across experiments).
// An experiment that cannot report at the chosen scale (the Headline needs
// an 8:1 point, which the tiny scale lacks) is skipped with a note on
// stderr; named in -only, it fails the run instead. Any failed experiment
// makes mirageexp exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	scales := experiments.Scales()
	names := make([]string, 0, len(scales))
	for name := range scales {
		names = append(names, name)
	}
	sort.Strings(names)
	scaleFlag := flag.String("scale", "quick", "experiment scale: one of "+strings.Join(names, ", "))
	parallelFlag := flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial); reports are bit-identical at any setting")
	onlyFlag := flag.String("only", "", "comma-separated experiment IDs to run (default all)")
	auditFlag := flag.Bool("audit", false, "run the invariant audit inside every simulation; any violation fails the experiment")
	jsonOut := flag.String("json-out", "", "write the selected reports as a JSON array to this file")
	metricsOut := flag.String("metrics-out", "", "write the telemetry registry (counters, gauges, histograms) as JSON to this file")
	traceOut := flag.String("trace-out", "", "write Chrome trace_event JSON to this file (chrome://tracing, Perfetto)")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the run to this file")
	flag.Parse()

	scale, ok := scales[*scaleFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "mirageexp: unknown scale %q (want one of %s)\n", *scaleFlag, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *parallelFlag < 0 {
		fmt.Fprintf(os.Stderr, "mirageexp: -parallel must be >= 0\n")
		os.Exit(2)
	}
	scale.Parallel = *parallelFlag
	scale.Audit = *auditFlag

	var tel *telemetry.Telemetry
	if *metricsOut != "" || *traceOut != "" {
		tel = telemetry.New()
		scale.Telemetry = tel
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

	only := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			only[strings.TrimSpace(id)] = true
		}
	}

	ctx := context.Background()
	failed := 0
	var reports []*experiments.Report
	for _, e := range experiments.All() {
		named := only[e.ID] || only[e.Slug]
		if len(only) > 0 && !named {
			continue
		}
		// An experiment that cannot report at this scale is skipped, not
		// failed, unless -only asked for it by name.
		if e.Check != nil && !named {
			if err := e.Check(scale); err != nil {
				fmt.Fprintf(os.Stderr, "mirageexp: skipping %s: %v\n", e.ID, err)
				continue
			}
		}
		start := time.Now()
		rep, err := e.Run(ctx, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mirageexp: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		reports = append(reports, rep)
		fmt.Println(rep.String())
		// Timings go to stderr so stdout is deterministic: CI diffs it
		// against the committed experiments_output.txt.
		fmt.Fprintf(os.Stderr, "(%s took %.1fs)\n", e.ID, time.Since(start).Seconds())
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := experiments.WriteReportsJSON(f, reports); err != nil {
			f.Close()
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
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
	if failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mirageexp: "+format+"\n", args...)
	os.Exit(1)
}
