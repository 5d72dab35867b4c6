// Command hibexp regenerates the reconstructed tables and figures of the
// Hibernator evaluation (see DESIGN.md's experiment index).
//
// Usage:
//
//	hibexp                      # run everything at default scale
//	hibexp -run F1,F2 -scale 0.2
//	hibexp -par 8               # fan out across 8 workers
//	hibexp -list
//	hibexp -csv out/            # also write one CSV per table
//	hibexp -metrics-dir obs/    # dump per-run metrics + trace streams
//
// Every experiment is deterministic for a fixed seed, so -par only
// changes wall-clock time: experiments run concurrently (and fan their
// own simulation runs out over the same width), but tables are printed
// in experiment-ID order and are byte-identical to a -par 1 run. The
// full-scale suite takes under a minute on two cores, so a failed or
// interrupted run is simply run again.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers for -pprof
	"os"
	"path/filepath"
	"strings"
	"time"

	"hibernator/internal/atomicio"
	"hibernator/internal/cliutil"
	"hibernator/internal/experiments"
	"hibernator/internal/report"
	"hibernator/internal/runner"
)

func main() {
	var (
		runIDs      = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scale       = flag.Float64("scale", 1.0, "duration scale factor (1.0 = full multi-hour runs, minimum 0.02)")
		seed        = flag.Int64("seed", 1, "master random seed")
		par         = flag.Int("par", 0, "worker pool width for experiments and their inner fan-outs (0 = GOMAXPROCS, 1 = sequential)")
		csvDir      = flag.String("csv", "", "directory to also write per-table CSV files into")
		list        = flag.Bool("list", false, "list experiments and exit")
		verbose     = flag.Bool("v", false, "print progress while running")
		check       = flag.Bool("check", false, "arm the invariant checker (internal/invariant) on every run; non-zero exit on violations")
		metricsDir  = flag.String("metrics-dir", "", "directory to write per-run metrics and trace streams into (see OBSERVABILITY.md)")
		sampleEvery = flag.Float64("sample-every", 0, "metrics sampling interval in simulated seconds (0 = each run's default)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	parseFlags()

	// Validate up front: a bad flag should be one clear line and a
	// non-zero exit, not a silent clamp deep inside an experiment. The
	// cliutil helpers also reject NaN, which `*scale <= 0` alone passes.
	if err := validateFlags(*scale, *sampleEvery, *par); err != nil {
		fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
		os.Exit(2)
	}
	servePprof(*pprofAddr)

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-46s reconstructs %s\n", e.ID, e.Title, e.Reconstructs)
		}
		return
	}

	var selected []experiments.Experiment
	if *runIDs == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "hibexp: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := experiments.Opts{
		Scale: *scale, Seed: *seed, Workers: *par,
		MetricsDir: *metricsDir, SampleEvery: *sampleEvery,
		Check: *check,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	// Run the selected experiments on the pool; results come back in
	// selection (ID) order regardless of which finishes first.
	results, err := runner.Map(context.Background(), *par, len(selected),
		func(_ context.Context, i int) ([]*report.Table, error) {
			e := selected[i]
			if *verbose {
				fmt.Fprintf(os.Stderr, "running %s: %s\n", e.ID, e.Title)
			}
			t0 := time.Now()
			tables, err := e.Run(opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "%s done in %v\n", e.ID, time.Since(t0).Round(time.Millisecond))
			}
			return tables, nil
		})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
		os.Exit(1)
	}

	for _, tables := range results {
		for _, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "all done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *check {
		total, samples := experiments.CheckViolations()
		if total > 0 {
			for _, s := range samples {
				fmt.Fprintf(os.Stderr, "hibexp: invariant: %s\n", s)
			}
			fmt.Fprintf(os.Stderr, "hibexp: invariant checker found %d violation(s) across all runs\n", total)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hibexp: invariants ok (0 violations)\n")
	}
}

// parseFlags parses the command line. A bad or unknown flag is one
// stderr line and exit 2, like a bad value below; -h prints the flag list.
func parseFlags() {
	flag.CommandLine.Init("hibexp", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	switch err := flag.CommandLine.Parse(os.Args[1:]); {
	case err == flag.ErrHelp:
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	case err != nil:
		fmt.Fprintf(os.Stderr, "hibexp: %v (see hibexp -h)\n", err)
		os.Exit(2)
	}
}

// validateFlags applies the numeric-flag rules. Table-tested in
// main_test.go.
func validateFlags(scale, sampleEvery float64, par int) error {
	return cliutil.FirstError(
		cliutil.AtLeast("-scale", scale, experiments.MinScale),
		cliutil.NonNegativeInt("-par", par),
		cliutil.NonNegative("-sample-every", sampleEvery),
	)
}

// servePprof exposes net/http/pprof on addr in the background; empty addr
// disables it. Experiments do not wait for the listener: profiling a short
// run means hitting the endpoint while it executes.
func servePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "hibexp: pprof: %v\n", err)
		}
	}()
}

func writeCSV(dir string, t *report.Table) error {
	return atomicio.WriteFile(filepath.Join(dir, t.ID+".csv"), t.CSV)
}
