// Command hibbench is the repository benchmark. It drives one named
// workload through the entry points users call — chaos.Scenario.BuildRun
// plus sim.Run (the hibsim -repro path), or served.Open plus
// Server.Handler over loopback HTTP (the hibserved path) — checks every
// output, and prints each metric by name and unit. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash hibbench/run.sh --workload oltp-hib --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// makes a separate traced run that reports the per-layer metrics and
// writes its spans under --out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hibernator/hibbench/benchstat"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func median(v []float64) float64 { return benchstat.Median(v) }

func percentile(v []float64, p float64) float64 { return benchstat.Percentile(v, p) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hibbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; each variant's scenario seed derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed region in seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "hibbench"), "directory for span files and the job server's state directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "hibbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	case !(*seconds > 0) || *seconds > 3600:
		fmt.Fprintf(stderr, "hibbench: --seconds must be in (0, 3600], got %v\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "hibbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	case *seed < 0 || *seed > 1<<40:
		fmt.Fprintf(stderr, "hibbench: --seed must be in [0, 2^40], got %d\n", *seed)
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "hibbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "# hibbench workload=%s seed=%d seconds=%g trace=%d host: %s/%s %s nproc=%d GOMAXPROCS=%d\n",
		w.name, *seed, *seconds, *traced, runtime.GOOS, runtime.GOARCH, runtime.Version(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	d := time.Duration(*seconds * float64(time.Second))
	var res *benchstat.Result
	var errs []string
	var err error
	if *traced == 1 {
		tr := newTracer()
		res, errs, err = runTraced(w, *seed, d, dir, tr, stdout)
		if err == nil {
			path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
			if werr := tr.write(path); werr != nil {
				err = werr
			} else {
				fmt.Fprintf(stderr, "hibbench: spans written to %s\n", path)
				tr.printSelf(stderr)
			}
		}
	} else {
		res, errs, err = runEndToEnd(w, *seed, d, dir, stdout)
	}
	for _, e := range errs {
		fmt.Fprintf(stderr, "hibbench: check failed: %s\n", e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hibbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hibbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runEndToEnd measures a workload with tracing off.
func runEndToEnd(w workload, seed int64, d time.Duration, dir string, stdout io.Writer) (*benchstat.Result, []string, error) {
	var values map[string]float64
	var t benchstat.Tally
	var errs []string
	var correct bool
	if w.served {
		refs, err := servedRefs(w, seed)
		if err != nil {
			return nil, nil, err
		}
		run, err := runServed(refs, dir, d, nil)
		if err != nil {
			return nil, nil, err
		}
		t, errs = run.tally()
		correct = !run.mismatch()
		if values, err = run.endToEnd(); err != nil {
			return nil, errs, err
		}
		fmt.Fprintf(stdout, "# jobs: %d timed (%d ok) over %.3f s of wall time in %d slices, %d in the untimed earlier session; latency percentiles over each slice's ok jobs, lower quartile over the slices, rates per slice, upper quartile; setup_s is the median of %d reopens replaying %d jobs\n",
			len(run.jobs), len(run.okJobs()), run.elapsed.Seconds(), len(run.sliceEnds), len(run.prep), len(run.setup), run.replayed)
		fmt.Fprintf(stdout, "# process CPU per completed job: %.3f ms; host time in reference units: %d reference jobs, p50 %.3f ms and p95 %.3f ms of wall time (%g and %g nominal)\n",
			ms(run.mem.cpu)/float64(len(run.okJobs())), len(run.refJobs), percentile(run.refJobs, 50), percentile(run.refJobs, 95), refJobP50Nominal, refJobP95Nominal)
	} else {
		run, err := runSimWorkload(w, seed, d.Seconds())
		if err != nil {
			return nil, nil, err
		}
		t, errs = run.tally, run.errs
		correct = t.Failed == 0
		if values, err = run.endToEnd(); err != nil {
			return nil, errs, err
		}
		fmt.Fprintf(stdout, "# jobs: %d timed simulations across %d variants (plus 1 untimed warm-up); sim_req_per_s is their median rate; setup_s is the median of %d parse+BuildRun\n",
			len(run.jobs), w.variants, len(run.setup))
		fmt.Fprintf(stdout, "# host time in reference seconds: reference kernel median %.4f s over %d runs (%.2f s nominal); unscaled sim_req_per_s %.6g per CPU second\n",
			median(run.kernel), len(run.kernel), refNominal, run.rawRate())
	}
	res, err := benchstat.Build(benchstat.EndToEnd, values, t, correct)
	if err != nil {
		return nil, errs, err
	}
	printMetrics(stdout, benchstat.EndToEnd, res)
	return res, errs, nil
}

// runTraced makes the traced run: simulator layers on variant 0, then,
// on the service workload, a traced pass over the job service. The
// simulator workloads make no service calls, so their served and obs
// metrics are 0.
func runTraced(w workload, seed int64, d time.Duration, dir string, tr *tracer, stdout io.Writer) (*benchstat.Result, []string, error) {
	l := &layerRun{values: map[string]float64{}}
	if err := traceSimLayers(w, seed, tr, l); err != nil {
		return nil, l.errs, err
	}
	if w.served {
		refs, err := servedRefs(w, seed)
		if err != nil {
			return nil, l.errs, err
		}
		run, err := runServed(refs, dir, d, tr)
		if err != nil {
			return nil, l.errs, err
		}
		traceServedLayers(run, l)
		var reqs uint64
		for _, o := range run.okJobs() {
			reqs += o.requests
		}
		l.values["runtime.gc_cpu_frac"] = run.mem.gcFrac()
		l.values["runtime.gc_cycles_per_mreq"] = float64(run.mem.gcCycles) / (float64(reqs) / 1e6)
	} else {
		for _, d := range benchstat.PerLayer {
			if strings.HasPrefix(d.Name, "served.") || strings.HasPrefix(d.Name, "obs.") {
				l.values[d.Name] = 0
			}
		}
	}
	res, err := benchstat.Build(benchstat.PerLayer, l.values, l.tally, len(l.errs) == 0)
	if err != nil {
		return nil, l.errs, err
	}
	printMetrics(stdout, benchstat.PerLayer, res)
	return res, l.errs, nil
}

func printMetrics(w io.Writer, defs []benchstat.Def, r *benchstat.Result) {
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-28s %18.6g %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# correct=%t attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
