// Command hibfleet simulates a fleet of heterogeneous disk arrays: array
// shapes, disk families and deployment vintages are sampled from the
// seed, tenant workload streams are routed across arrays by a
// deterministic weighted rendezvous hash, and every array runs its own
// invariant-checkable simulation on a worker pool. The report on stdout
// is byte-identical across -par widths and invocations for a fixed flag
// set.
//
// Usage examples:
//
//	hibfleet -arrays 100 -seed 1                 # 100-array fleet, 400 tenants
//	hibfleet -arrays 100 -seed 1 -par 8 -check   # parallel + invariant-checked
//	hibfleet -arrays 100 -power-cap 20           # only 20 arrays above low speed
//	hibfleet -arrays 20 -metrics-dir obs/        # per-array metrics + trace files
//
// The exit status is 0 for a clean run, 1 when any invariant or the
// fleet-scope energy-conservation check failed (the report says which),
// and 2 for flag errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hibernator/internal/cliutil"
	"hibernator/internal/fleet"
)

func main() {
	var (
		arrays     = flag.Int("arrays", 20, "fleet size; array i's shape derives from (seed, i)")
		tenants    = flag.Int("tenants", 0, "tenant workload streams routed across the fleet (0 = 4 per array)")
		seed       = flag.Int64("seed", 1, "master seed for sampling, routing and every per-array run")
		dur        = flag.Float64("dur", 300, "simulated seconds per array")
		powerCap   = flag.Int("power-cap", 0, "max arrays licensed to run disks above the low speed tier (0 = uncapped)")
		accel      = flag.Float64("fault-accel", 2000, "drive-aging acceleration for vintage fault sampling (simulated s -> drive s)")
		par        = flag.Int("par", 0, "array pool width (0 = GOMAXPROCS, 1 = sequential); report bytes never depend on it")
		check      = flag.Bool("check", false, "arm an invariant checker on every array's run")
		metricsDir = flag.String("metrics-dir", "", "directory for per-array metrics/trace JSONL files (created if missing)")
		verbose    = flag.Bool("v", false, "print progress to stderr")
	)
	flag.Parse()

	if err := validateFlags(*arrays, *tenants, *powerCap, *par, *dur, *accel); err != nil {
		fmt.Fprintf(os.Stderr, "hibfleet: %v\n", err)
		os.Exit(2)
	}
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hibfleet: %v\n", err)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := fleet.Config{
		Arrays: *arrays, Tenants: *tenants, Seed: *seed, Duration: *dur,
		PowerCap: *powerCap, FaultAccel: *accel,
		Par: *par, Check: *check,
		MetricsDir: *metricsDir, Context: ctx,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	start := time.Now()
	rep, err := fleet.Run(cfg)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "hibfleet: interrupted\n")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "hibfleet: %v\n", err)
		os.Exit(1)
	}
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hibfleet: %v\n", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "hibfleet: done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if !rep.Ok() {
		os.Exit(1)
	}
}

// validateFlags applies the numeric-flag rules; one line, exit 2, never a
// silently absurd fleet. Table-tested in main_test.go.
func validateFlags(arrays, tenants, powerCap, par int, dur, accel float64) error {
	return cliutil.FirstError(
		cliutil.PositiveInt("-arrays", arrays),
		cliutil.NonNegativeInt("-tenants", tenants),
		cliutil.NonNegativeInt("-power-cap", powerCap),
		cliutil.NonNegativeInt("-par", par),
		cliutil.Positive("-dur", dur),
		cliutil.Positive("-fault-accel", accel),
	)
}
