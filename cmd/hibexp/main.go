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
//	hibexp -journal run.jsonl   # record run lifecycle durably
//	hibexp -journal run.jsonl -resume   # skip verified-complete runs
//
// Every experiment is deterministic for a fixed seed, so -par only
// changes wall-clock time: experiments run concurrently (and fan their
// own simulation runs out over the same width), but tables are printed
// in experiment-ID order and are byte-identical to a -par 1 run.
//
// Crash safety: with -journal, each experiment's lifecycle is recorded
// in an append-only fsynced JSONL file and its result tables are written
// atomically to <journal>.d/<ID>.json with their sha256 in the journal.
// After a crash (or Ctrl-C, which drains the pool and exits cleanly),
// re-running with -resume reprints completed experiments from their
// verified artifacts — byte-identical to an uninterrupted run — and only
// executes the rest. The watchdog flags (-max-wall, -max-events,
// -wd-stall) bound every simulation run so one stuck run cannot hang the
// suite; -retries re-runs a failed experiment with doubling backoff.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers for -pprof
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hibernator/internal/atomicio"
	"hibernator/internal/cliutil"
	"hibernator/internal/experiments"
	"hibernator/internal/journal"
	"hibernator/internal/report"
	"hibernator/internal/runner"
	"hibernator/internal/sim"
)

// retryBackoff is the base delay before an experiment's first re-run;
// runner.Retry doubles it per attempt.
const retryBackoff = 200 * time.Millisecond

func main() {
	var (
		runIDs      = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scale       = flag.Float64("scale", 1.0, "duration scale factor (1.0 = full multi-hour runs)")
		seed        = flag.Int64("seed", 1, "master random seed")
		par         = flag.Int("par", 0, "worker pool width for experiments and their inner fan-outs (0 = GOMAXPROCS, 1 = sequential)")
		csvDir      = flag.String("csv", "", "directory to also write per-table CSV files into")
		list        = flag.Bool("list", false, "list experiments and exit")
		verbose     = flag.Bool("v", false, "print progress while running")
		check       = flag.Bool("check", false, "arm the invariant checker (internal/invariant) on every run; non-zero exit on violations")
		metricsDir  = flag.String("metrics-dir", "", "directory to write per-run metrics and trace streams into (see OBSERVABILITY.md)")
		sampleEvery = flag.Float64("sample-every", 0, "metrics sampling interval in simulated seconds (0 = each run's default)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		journalPath = flag.String("journal", "", "append-only run journal (JSONL); result tables land in <journal>.d/<ID>.json")
		resume      = flag.Bool("resume", false, "with -journal: reprint experiments whose journaled artifacts verify instead of re-running them")
		retries     = flag.Int("retries", 0, "extra attempts for a failed experiment (doubling backoff)")
		maxWall     = flag.Duration("max-wall", 0, "watchdog: abort any simulation run after this much wall-clock time (0 = off)")
		maxEvents   = flag.Uint64("max-events", 0, "watchdog: abort any simulation run after this many fired events (0 = off)")
		wdStall     = flag.Duration("wd-stall", 0, "watchdog: abort any simulation run that fires no event for this long (0 = off)")
	)
	flag.Parse()

	// Validate up front: a bad flag should be one clear line and a
	// non-zero exit, not a silent clamp deep inside an experiment. The
	// cliutil helpers also reject NaN, which `*scale <= 0` alone passes.
	if err := validateFlags(*scale, *sampleEvery, *par, *retries); err != nil {
		fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
		os.Exit(2)
	}
	if *maxWall < 0 || *wdStall < 0 {
		fmt.Fprintf(os.Stderr, "hibexp: watchdog durations must be >= 0\n")
		os.Exit(2)
	}
	if *resume && *journalPath == "" {
		fmt.Fprintf(os.Stderr, "hibexp: -resume requires -journal\n")
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

	// The first SIGINT/SIGTERM cancels the context: in-flight simulation
	// runs stop at their next event batch, the pool drains, and the
	// journal records everything finished so far. A second signal
	// restores default handling and kills the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	opts := experiments.Opts{
		Scale: *scale, Seed: *seed, Workers: *par,
		MetricsDir: *metricsDir, SampleEvery: *sampleEvery,
		Check:   *check,
		Context: ctx,
	}
	if *maxWall > 0 || *maxEvents > 0 || *wdStall > 0 {
		opts.Watchdog = &sim.Watchdog{MaxWall: *maxWall, MaxEvents: *maxEvents, Stall: *wdStall}
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

	var jnl *journal.Journal
	var artDir string
	// latest holds each run's last journaled entry as of open. Each
	// experiment runs once per process, so it never needs to see this
	// process's own appends.
	latest := map[string]journal.Entry{}
	if *journalPath != "" {
		// The meta pins what determines the table bytes (scale, seed) plus
		// the check arming: resuming a -check suite from an unchecked
		// journal would silently skip invariant coverage for the reprinted
		// experiments. Worker widths stay out — they never change a byte.
		meta := fmt.Sprintf("hibexp scale=%g seed=%d check=%t", *scale, *seed, *check)
		var err error
		jnl, err = journal.OpenReplay(*journalPath, meta, func(_ int, e journal.Entry) error {
			latest[e.Run] = e
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
			os.Exit(1)
		}
		defer jnl.Close()
		artDir = *journalPath + ".d"
		if err := os.MkdirAll(artDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hibexp: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	// Run the selected experiments on the pool; results come back in
	// selection (ID) order regardless of which finishes first.
	results, err := runner.Map(ctx, *par, len(selected),
		func(wctx context.Context, i int) ([]*report.Table, error) {
			e := selected[i]
			if jnl != nil && *resume {
				if tables, ok := loadJournaled(latest[e.ID], artDir); ok {
					if *verbose {
						fmt.Fprintf(os.Stderr, "%s resumed from journal (artifact verified)\n", e.ID)
					}
					return tables, nil
				}
			}
			attempt := 1
			if jnl != nil {
				if prev, ok := latest[e.ID]; ok {
					attempt = prev.Attempt + 1
				}
				if err := jnl.Append(journal.Entry{Run: e.ID, Status: journal.StatusRunning, Attempt: attempt}); err != nil {
					return nil, err
				}
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "running %s: %s\n", e.ID, e.Title)
			}
			t0 := time.Now()
			var tables []*report.Table
			err := runner.Retry(wctx, *retries+1, retryBackoff, func(context.Context) error {
				var err error
				tables, err = e.Run(opts)
				return err
			})
			if err != nil {
				if jnl != nil && wctx.Err() == nil {
					// Interrupts are not failures: the run stays "running"
					// and re-executes on resume.
					jnl.Append(journal.Entry{Run: e.ID, Status: journal.StatusFailed, Attempt: attempt,
						Detail: err.Error(), Wall: time.Since(t0).Seconds()})
				}
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "%s done in %v\n", e.ID, time.Since(t0).Round(time.Millisecond))
			}
			if jnl != nil {
				blob, err := json.Marshal(tables)
				if err != nil {
					return nil, err
				}
				if err := atomicio.WriteFileBytes(filepath.Join(artDir, e.ID+".json"), blob); err != nil {
					return nil, err
				}
				sum := sha256.Sum256(blob)
				if err := jnl.Append(journal.Entry{Run: e.ID, Status: journal.StatusDone, Attempt: attempt,
					SHA256: hex.EncodeToString(sum[:]), Wall: time.Since(t0).Seconds()}); err != nil {
					return nil, err
				}
			}
			return tables, nil
		})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "hibexp: interrupted; journaled results are durable (re-run with -resume)\n")
			os.Exit(130)
		}
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

// loadJournaled returns an experiment's tables from its journal artifact
// when its latest journal entry e is done AND the artifact's sha256
// matches the recorded digest. Any mismatch — missing file, torn write
// survived by a non-atomic editor, stale hash — falls through to a fresh
// run, so resume never trusts an unverified byte.
func loadJournaled(e journal.Entry, artDir string) ([]*report.Table, bool) {
	if e.Status != journal.StatusDone || e.SHA256 == "" {
		return nil, false
	}
	blob, err := os.ReadFile(filepath.Join(artDir, e.Run+".json"))
	if err != nil {
		return nil, false
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != e.SHA256 {
		return nil, false
	}
	var tables []*report.Table
	if err := json.Unmarshal(blob, &tables); err != nil {
		return nil, false
	}
	return tables, true
}

// validateFlags applies the numeric-flag rules. Table-tested in
// main_test.go.
func validateFlags(scale, sampleEvery float64, par, retries int) error {
	return cliutil.FirstError(
		cliutil.Positive("-scale", scale),
		cliutil.NonNegativeInt("-par", par),
		cliutil.NonNegative("-sample-every", sampleEvery),
		cliutil.NonNegativeInt("-retries", retries),
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
