// Command hibserved runs the simulator as a long-lived HTTP/JSON
// service: clients POST `# hibchaos repro v1` scenarios to /jobs and
// the server executes them on a bounded worker queue, streaming each
// job's metrics and decision trace live.
//
// Usage:
//
//	hibserved -addr :8080
//	hibserved -addr :8080 -workers 4 -backlog 32 -max-jobs 128
//	hibserved -check                 # arm the invariant checker per job
//	hibserved -max-wall 2m -wd-stall 30s   # per-job watchdog limits
//	hibserved -state-dir /var/lib/hib      # crash-recoverable job table
//	hibserved -quota-rate 5 -quota-burst 10 -max-client-inflight 4
//
// API (see internal/served for the full contract):
//
//	POST /jobs                submit a scenario (?dry-run=1 validates only)
//	GET  /jobs                list jobs and admission stats
//	GET  /jobs/{id}           job status, result when complete
//	GET  /jobs/{id}/stream    live metrics, chunked JSONL
//	GET  /jobs/{id}/trace     live decision trace, chunked JSONL
//	GET  /jobs/{id}/events    live metrics as Server-Sent Events
//	POST /jobs/{id}/suspend   stop a running job, keep its snapshot
//	POST /jobs/{id}/resume    restore a suspended job
//	POST /jobs/{id}/retry     re-run a failed/canceled job
//	POST /jobs/{id}/cancel    stop a job for good
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 while crash recovery drains)
//
// With -state-dir every job lifecycle edge lands in a fsynced
// write-ahead log under that directory, scenario bytes are stored as
// content-addressed artifacts, and run snapshots are persisted: a
// kill -9 loses nothing — restarting with the same -state-dir replays
// the log, re-enqueues interrupted jobs (resuming from their latest
// snapshot when one survives), and serves recovered results
// byte-identical to a direct run. POST /jobs accepts X-Client and
// X-Job-Key headers; the key makes submission idempotent across
// crashes. -quota-rate/-quota-burst/-max-client-inflight arm
// per-client fairness limits (429 with reason "quota").
//
// When the job table or backlog is full the server answers 429 with a
// Retry-After header — explicit backpressure, never an unbounded queue.
// Results and streams are byte-identical to a direct `hibsim` run of
// the same scenario; SIGINT/SIGTERM drains in-flight requests, stops
// running jobs without logging any edge, and exits cleanly — with
// -state-dir the next start resumes or restarts them, and queued and
// suspended jobs stay as they were.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hibernator/internal/served"
	"hibernator/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxJobs    = flag.Int("max-jobs", 256, "bound on the in-memory job table")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		backlog    = flag.Int("backlog", 0, "accepted-but-not-running bound (0 = max-jobs)")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		check      = flag.Bool("check", false, "arm the invariant checker on every job")
		attempts   = flag.Int("attempts", 1, "runs per job before it is failed (retries watchdog aborts)")
		backoff    = flag.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubling, clamped)")
		maxWall    = flag.Duration("max-wall", 0, "per-job wall-clock budget (0 = off)")
		maxEvents  = flag.Uint64("max-events", 0, "per-job event budget (0 = off)")
		wdStall    = flag.Duration("wd-stall", 0, "per-job no-progress budget (0 = off)")
		drainWait  = flag.Duration("drain", 10*time.Second, "shutdown drain budget for in-flight requests")
		stateDir   = flag.String("state-dir", "", "durable state directory: WAL, artifacts, snapshots (empty = in-memory)")
		quotaRate  = flag.Float64("quota-rate", 0, "per-client submissions per second (0 = unlimited)")
		quotaBurst = flag.Int("quota-burst", 0, "per-client token-bucket burst (0 = 1)")
		maxCliInfl = flag.Int("max-client-inflight", 0, "per-client accepted+running cap (0 = unlimited)")
	)
	flag.Parse()

	opts := &served.Options{
		MaxJobs:           *maxJobs,
		Workers:           *workers,
		Backlog:           *backlog,
		RetryAfter:        *retryAfter,
		Check:             *check,
		Attempts:          *attempts,
		Backoff:           *backoff,
		StateDir:          *stateDir,
		QuotaRate:         *quotaRate,
		QuotaBurst:        *quotaBurst,
		MaxClientInflight: *maxCliInfl,
	}
	if *maxWall > 0 || *maxEvents > 0 || *wdStall > 0 {
		opts.Watchdog = &sim.Watchdog{MaxWall: *maxWall, MaxEvents: *maxEvents, Stall: *wdStall}
	}
	srv, err := served.Open(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hibserved: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hibserved: listening on %s\n", *addr)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "hibserved: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "hibserved: drain: %v\n", err)
		}
		srv.Close()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "hibserved: %v\n", err)
			os.Exit(1)
		}
	}
}
