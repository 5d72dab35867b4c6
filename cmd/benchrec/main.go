// Command benchrec records and gates the repo's performance trajectory.
//
// Record mode measures the event-engine kernels with testing.Benchmark,
// times the reference experiment suite in-process, and writes one
// canonical BENCH_NNNN.json (schema in EXPERIMENTS.md):
//
//	benchrec -pr 6 -out BENCH_0006.json
//
// Smoke mode is the CI gate: re-measure just the engine kernels and fail
// on any allocation per event or a >2x ns/event regression against the
// committed baseline. It skips the slow end-to-end timing.
//
//	benchrec -smoke -baseline BENCH_0006.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hibernator/internal/benchrec"
	"hibernator/internal/cliutil"
	"hibernator/internal/experiments"
)

func main() {
	var (
		out      = flag.String("out", "", "write the bench record to this path (record mode)")
		pr       = flag.Int("pr", 0, "pull-request ordinal stamped into the record (record mode)")
		scale    = flag.Float64("scale", 0.05, "duration scale for the end-to-end reference run")
		smoke    = flag.Bool("smoke", false, "gate mode: compare fresh engine kernels against -baseline and exit non-zero on regression")
		baseline = flag.String("baseline", "", "baseline BENCH_NNNN.json for -smoke")
	)
	flag.Parse()

	if err := validateFlags(*scale, *pr, *smoke, *out, *baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchrec: %v\n", err)
		os.Exit(2)
	}

	if *smoke {
		base, err := benchrec.Load(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrec: %v\n", err)
			os.Exit(1)
		}
		fresh := benchrec.CollectEngine()
		report(fresh)
		if err := benchrec.Smoke(fresh, base.Engine); err != nil {
			fmt.Fprintf(os.Stderr, "benchrec: smoke gate: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("smoke gate passed")
		return
	}

	eng := benchrec.CollectEngine()
	report(eng)
	fmt.Fprintf(os.Stderr, "timing reference suite at scale %g...\n", *scale)
	start := time.Now()
	if err := benchrec.RunSuite(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "benchrec: reference suite: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start).Seconds()
	fmt.Printf("e2e: %.2fs wall for the reference suite\n", wall)

	rec := benchrec.NewRecord(*pr, eng, benchrec.CollectE2E(*scale, wall))
	if err := rec.Write(*out); err != nil {
		fmt.Fprintf(os.Stderr, "benchrec: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// report prints the kernel numbers so CI logs show what was measured even
// when the gate passes.
func report(e benchrec.EngineBench) {
	fmt.Printf("engine: schedule+fire %.1f ns/event (%.2fM events/s), cancel %.1f, churn %.1f, depth10k %.1f, allocs/event %g\n",
		e.ScheduleFireNs, e.EventsPerSec/1e6, e.ScheduleCancelNs, e.ChurnNs, e.Depth10kNs, e.AllocsPerEvent)
}

// validateFlags applies the numeric and mode rules. Table-tested in
// main_test.go.
func validateFlags(scale float64, pr int, smoke bool, out, baseline string) error {
	if err := cliutil.FirstError(
		cliutil.AtLeast("-scale", scale, experiments.MinScale),
		cliutil.NonNegativeInt("-pr", pr),
	); err != nil {
		return err
	}
	if smoke {
		if baseline == "" {
			return fmt.Errorf("-smoke requires -baseline")
		}
		return nil
	}
	if out == "" {
		return fmt.Errorf("record mode requires -out (or pass -smoke)")
	}
	return nil
}
