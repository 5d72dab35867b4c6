// Command hibchaos soaks the simulator in randomized scenarios and holds
// every one to the invariant checker and the metamorphic oracles
// (repeat-determinism, armed==unarmed, panic freedom, kill-and-restore).
// Failures are automatically shrunk to minimal reproducers; with -out
// each repro is written to a self-contained file that `hibsim -repro
// <file>` replays exactly.
//
// Usage examples:
//
//	hibchaos -n 500                     # 500 scenarios, default seed
//	hibchaos -seed 7 -n 5000 -par 8     # big soak, 8 scenarios at a time
//	hibchaos -n 100 -out repros/        # write repro files on failure
//	hibchaos -n 5000 -journal soak.jsonl          # durable verdicts
//	hibchaos -n 5000 -journal soak.jsonl -resume  # continue a killed soak
//
// For a fixed -seed and -n the report on stdout is byte-identical across
// -par widths and invocations; progress chatter goes to stderr under -v.
// With -journal every scenario's verdict is fsynced to an append-only
// JSONL file as it lands; after a crash (or Ctrl-C, which drains the
// pool and exits cleanly), -resume replays recorded verdicts instead of
// re-running those scenarios and the merged report is byte-identical to
// an uninterrupted soak's. The exit status is 0 for a clean soak, 1 when
// any scenario failed, and 2 for flag errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hibernator/internal/chaos"
	"hibernator/internal/cliutil"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "master seed; scenario i derives from (seed, i)")
		n           = flag.Int("n", 200, "number of scenarios to generate and judge")
		par         = flag.Int("par", 0, "worker pool width (0 = GOMAXPROCS, 1 = sequential)")
		budget      = flag.Int("budget", chaos.DefaultShrinkBudget, "max oracle executions spent shrinking each failure (1 execution = 3 simulation runs)")
		out         = flag.String("out", "", "directory for repro files (one per failure)")
		injectBug   = flag.Bool("inject-bug", false, "deliberately skew one disk's energy ledger in every scenario (self-test: the soak must catch and shrink it)")
		journalPath = flag.String("journal", "", "append-only verdict journal (JSONL) for crash-safe long soaks")
		resume      = flag.Bool("resume", false, "with -journal: reuse journaled verdicts instead of re-running those scenarios")
		verbose     = flag.Bool("v", false, "print progress to stderr")
	)
	flag.Parse()

	if err := validateFlags(*n, *par, *budget); err != nil {
		fmt.Fprintf(os.Stderr, "hibchaos: %v\n", err)
		os.Exit(2)
	}
	if *resume && *journalPath == "" {
		fmt.Fprintf(os.Stderr, "hibchaos: -resume requires -journal\n")
		os.Exit(2)
	}

	// First SIGINT/SIGTERM drains the pool (journaled verdicts stay
	// durable); a second one restores default handling and kills the
	// process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	opts := chaos.SoakOptions{
		Seed: *seed, N: *n, Workers: *par,
		ShrinkBudget: *budget, OutDir: *out, InjectBug: *injectBug,
		Journal: *journalPath, Resume: *resume, Context: ctx,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	start := time.Now()
	rep, err := chaos.Soak(opts)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "hibchaos: interrupted; journaled verdicts are durable (re-run with -resume)\n")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "hibchaos: %v\n", err)
		os.Exit(1)
	}
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hibchaos: %v\n", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "hibchaos: done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if !rep.Ok() {
		os.Exit(1)
	}
}

// validateFlags applies the numeric-flag rules; one line, exit 2, never a
// silently absurd soak. Table-tested in main_test.go.
func validateFlags(n, par, budget int) error {
	return cliutil.FirstError(
		cliutil.NonNegativeInt("-n", n),
		cliutil.NonNegativeInt("-par", par),
		cliutil.PositiveInt("-budget", budget),
	)
}
