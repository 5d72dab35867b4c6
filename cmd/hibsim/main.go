// Command hibsim runs one disk-array simulation under a chosen
// energy-management scheme and prints the energy/performance summary.
//
// Usage examples:
//
//	hibsim -scheme hibernator -workload oltp -duration 3600 -rate 50
//	hibsim -scheme tpm -workload cello -duration 86400 -goal 8ms
//	hibsim -scheme base -trace requests.csv -duration 600
//	hibsim -repro seed1-17.repro        # replay a hibchaos reproducer
//
// Crash-safe runs: -snapshot-out checkpoints the full simulation state
// every -snapshot-every simulated seconds (atomically — a kill -9 can
// never leave a torn file), and -resume-from restarts a killed run from
// its last checkpoint with byte-identical final output.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers for -pprof
	"os"
	"sort"
	"strings"
	"time"

	"hibernator/internal/array"
	"hibernator/internal/chaos"
	"hibernator/internal/cliutil"
	"hibernator/internal/diskmodel"
	"hibernator/internal/fault"
	"hibernator/internal/hibernator"
	"hibernator/internal/invariant"
	"hibernator/internal/obs"
	"hibernator/internal/policy"
	"hibernator/internal/raid"
	"hibernator/internal/sim"
	"hibernator/internal/snapshot"
	"hibernator/internal/trace"
)

func main() {
	var (
		scheme     = flag.String("scheme", "hibernator", "base | tpm | drpm | pdc | maid | hibernator")
		workload   = flag.String("workload", "oltp", "oltp | cello (ignored with -trace)")
		traceFile  = flag.String("trace", "", "CSV trace file (overrides -workload)")
		duration   = flag.Float64("duration", 3600, "simulated seconds")
		rate       = flag.Float64("rate", 50, "mean request rate for the oltp workload (req/s)")
		groups     = flag.Int("groups", 4, "RAID groups")
		groupDisks = flag.Int("group-disks", 4, "disks per group")
		raidLevel  = flag.String("raid", "raid5", "raid0 | raid1 | raid5")
		levels     = flag.Int("levels", 5, "multi-speed RPM levels (1 = conventional disk)")
		family     = flag.String("disk", "enterprise", "disk family: enterprise (Ultrastar-class) | sff (2.5\" low-power)")
		sched      = flag.String("sched", "fcfs", "disk queue discipline: fcfs | sptf")
		failAt     = flag.Float64("fail-at", 0, "inject a disk failure (group 0, disk 0) at this time; 0 disables")
		cacheMB    = flag.Int64("cache-mb", 256, "controller cache size (0 disables)")
		goal       = flag.Duration("goal", 0, "response-time goal (e.g. 8ms; 0 = none)")
		epoch      = flag.Float64("epoch", 0, "epoch seconds for hibernator/pdc (default duration/4)")
		seed       = flag.Int64("seed", 1, "random seed")
		faultsFile = flag.String("faults", "", "CSV fault schedule (lines: t,disk,failstop | t,disk,failslow,factor[,ramp] | t,disk,transient,prob[,dur] | t,disk,latent,lo,hi | t,disk,spinfail,prob[,retries])")
		faultRate  = flag.Float64("fault-rate", 0, "ambient per-op transient error probability on every disk [0,1)")
		spinFail   = flag.Float64("spin-fail-rate", 0, "per-attempt spin-up failure probability on every disk [0,1)")
		retries    = flag.Int("retries", 2, "same-disk retries per transient error (used once faults are armed)")
		opDeadline = flag.Duration("op-deadline", 250*time.Millisecond, "per-attempt deadline once faults are armed (0 disables)")

		reproFile   = flag.String("repro", "", "replay a hibchaos repro file and re-judge it (all other flags ignored)")
		snapOut     = flag.String("snapshot-out", "", "checkpoint the simulation state to this file (written atomically, overwritten each epoch)")
		snapEvery   = flag.Float64("snapshot-every", 0, "snapshot interval in simulated seconds (default duration/4 when -snapshot-out is set)")
		resumeFrom  = flag.String("resume-from", "", "resume a killed run from a -snapshot-out file; flags must match the original run")
		check       = flag.Bool("check", false, "arm the invariant checker (internal/invariant); violations print to stderr and exit non-zero")
		metricsOut  = flag.String("metrics-out", "", "write per-interval metrics to this file (JSONL; a .csv suffix selects CSV)")
		traceOut    = flag.String("trace-out", "", "write the policy decision trace to this file (JSONL; a .csv suffix selects CSV)")
		sampleEvery = flag.Float64("sample-every", 0, "metrics sampling interval in simulated seconds (default: the response window)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *reproFile != "" {
		os.Exit(runRepro(*reproFile))
	}

	// Validate numeric flags up front: one clear line and a non-zero exit
	// beats a panic (or a silently absurd run) from deep inside the model.
	// The helpers reject NaN and infinities too — `*duration <= 0` alone
	// would wave NaN straight through.
	if err := validateFlags(simFlags{
		duration: *duration, rate: *rate, failAt: *failAt, epoch: *epoch,
		faultRate: *faultRate, spinFail: *spinFail, sampleEvery: *sampleEvery,
		goal: *goal, opDeadline: *opDeadline,
		groups: *groups, groupDisks: *groupDisks, levels: *levels, retries: *retries,
		cacheMB: *cacheMB,
	}); err != nil {
		fatalf("%v", err)
	}
	servePprof(*pprofAddr)

	var spec diskmodel.Spec
	switch strings.ToLower(*family) {
	case "enterprise":
		spec = diskmodel.SingleSpeedUltrastar()
		if *levels > 1 {
			spec = diskmodel.MultiSpeedUltrastar(*levels, 3000)
		}
	case "sff":
		spec = diskmodel.MultiSpeedSFF(*levels, 1800)
	default:
		fatalf("unknown disk family %q", *family)
	}
	var scheduler diskmodel.Scheduler
	switch strings.ToLower(*sched) {
	case "fcfs":
		scheduler = diskmodel.FCFS
	case "sptf":
		scheduler = diskmodel.SPTF
	default:
		fatalf("unknown scheduler %q", *sched)
	}
	var level raid.Level
	switch strings.ToLower(*raidLevel) {
	case "raid0":
		level = raid.RAID0
	case "raid1":
		level = raid.RAID1
	case "raid5":
		level = raid.RAID5
	default:
		fatalf("unknown RAID level %q", *raidLevel)
	}
	if *epoch == 0 {
		*epoch = *duration / 4
	}

	cfg := sim.Config{
		Spec:               spec,
		Groups:             *groups,
		GroupDisks:         *groupDisks,
		Level:              level,
		ExtentBytes:        64 << 20,
		CacheBytes:         *cacheMB << 20,
		RespGoal:           goal.Seconds(),
		Seed:               *seed,
		ExpectedRotLatency: true,
		Scheduler:          scheduler,
	}

	// Fault injection: a CSV schedule and/or ambient rates. Arming any of
	// them also arms the retry/timeout policy; with none of them the retry
	// machinery stays a strict no-op and runs are bit-identical to a build
	// that never heard of faults.
	var faultSched *fault.Schedule
	if *faultsFile != "" {
		var err error
		faultSched, err = fault.Load(*faultsFile)
		if err != nil {
			fatalf("%v", err)
		}
	}
	if *faultRate > 0 || *spinFail > 0 {
		if faultSched == nil {
			faultSched = &fault.Schedule{}
		}
		faultSched.Rates.TransientProb = *faultRate
		faultSched.Rates.SpinUpFailProb = *spinFail
		faultSched.Rates.SpinUpRetries = 2
	}
	if faultSched != nil {
		cfg.Faults = faultSched
		cfg.Retry = array.RetryPolicy{
			MaxRetries:    *retries,
			Backoff:       0.01,
			BackoffFactor: 4,
			OpDeadline:    opDeadline.Seconds(),
			SuspectAfter:  10,
			EvictAfter:    1000,
			AutoRebuild:   true,
		}
	}

	var ctrl sim.Controller
	switch strings.ToLower(*scheme) {
	case "base":
		ctrl = policy.NewBase()
	case "tpm":
		ctrl = policy.NewTPM(0)
	case "drpm":
		ctrl = policy.NewDRPM()
	case "pdc":
		p := policy.NewPDC()
		p.Epoch = *epoch
		ctrl = p
	case "maid":
		cfg.SpareDisks = 2
		ctrl = policy.NewMAID()
	case "hibernator":
		ctrl = hibernator.New(hibernator.Options{Epoch: *epoch})
	default:
		fatalf("unknown scheme %q", *scheme)
	}

	var src trace.Source
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		src, err = trace.NewCSVSource(f)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		vol, err := sim.LogicalBytes(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		switch strings.ToLower(*workload) {
		case "oltp":
			src, err = trace.NewOLTP(trace.OLTPConfig{
				Seed: *seed + 11, VolumeBytes: vol, Duration: *duration, MaxRate: *rate,
			})
		case "cello":
			src, err = trace.NewCello(trace.CelloConfig{
				Seed: *seed + 11, VolumeBytes: vol, Duration: *duration, DayPeriod: *duration,
			})
		default:
			fatalf("unknown workload %q", *workload)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}

	if *failAt > 0 {
		ctrl = &failingController{inner: ctrl, at: *failAt}
	}
	if *metricsOut != "" {
		cfg.Metrics = obs.NewRegistry(0)
		cfg.ObsSampleEvery = *sampleEvery
	}
	if *traceOut != "" {
		cfg.Trace = obs.NewTrace()
	}
	var checker *invariant.Checker
	if *check {
		checker = invariant.New()
		cfg.Invariants = checker
	}

	// Snapshot checkpointing and resume. The sim layer validates the
	// config.* section itself; the cli.* entries extend the identity check
	// to what only this binary knows — which workload generator (or trace
	// file) produced the request stream.
	wl := strings.ToLower(*workload)
	if *traceFile != "" {
		wl = "csv"
	}
	tf := *traceFile
	if tf == "" {
		tf = "-"
	}
	cliIdent := [][2]string{
		{"cli.workload", wl},
		{"cli.tracefile", tf},
		{"cli.rate", fmt.Sprintf("%g", *rate)},
		{"cli.failat", fmt.Sprintf("%g", *failAt)},
		{"cli.epoch", fmt.Sprintf("%g", *epoch)},
	}
	if *snapOut != "" {
		every := *snapEvery
		if every == 0 {
			every = *duration / 4
		}
		cfg.SnapshotEvery = every
		cfg.SnapshotSink = func(st *snapshot.State) error {
			for _, e := range cliIdent {
				st.Set(e[0], e[1])
			}
			return st.Save(*snapOut)
		}
	}
	var resumedAt float64
	if *resumeFrom != "" {
		st, err := snapshot.Load(*resumeFrom)
		if err != nil {
			fatalf("%v", err)
		}
		for _, e := range cliIdent {
			if v, ok := st.Get(e[0]); !ok || v != e[1] {
				fatalf("snapshot %s: %s recorded %q but this run has %q (resume needs the original flags)",
					*resumeFrom, e[0], v, e[1])
			}
		}
		if resumedAt, err = st.Float("t"); err != nil {
			fatalf("%v", err)
		}
		cfg.ResumeFrom = st
	}

	start := time.Now()
	res, err := sim.Run(cfg, src, ctrl, *duration)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("scheme          %s\n", res.Scheme)
	fmt.Printf("simulated       %.0f s (%.1f h), wall %v\n", res.Duration, res.Duration/3600, time.Since(start).Round(time.Millisecond))
	if *resumeFrom != "" {
		fmt.Printf("resumed         from %s at t=%.0f s (state verified)\n", *resumeFrom, resumedAt)
	}
	if *snapOut != "" {
		fmt.Printf("snapshots       every %.0f s -> %s\n", cfg.SnapshotEvery, *snapOut)
	}
	fmt.Printf("requests        %d (cache-absorbed %d)\n", res.Requests, res.CacheHits)
	fmt.Printf("mean response   %.2f ms (P95 %.2f, P99 %.2f, max %.1f s)\n",
		res.MeanResp*1000, res.P95Resp*1000, res.P99Resp*1000, res.MaxResp)
	fmt.Printf("energy          %.1f kJ (%.1f W average over all disks)\n", res.Energy/1000, res.Energy/res.Duration)
	states := make([]string, 0, len(res.EnergyByState))
	for s := range res.EnergyByState {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Printf("  %-10s %.1f kJ\n", s, res.EnergyByState[s]/1000)
	}
	fmt.Printf("transitions     %d spin-ups, %d spin-downs, %d speed shifts\n", res.SpinUps, res.SpinDowns, res.LevelShifts)
	fmt.Printf("migrations      %d extents, %.1f GiB\n", res.Migrations, float64(res.MigratedBytes)/(1<<30))
	if cfg.Faults != nil {
		f := res.Faults
		fmt.Printf("faults          %d injected (%d skipped), %d transient errs, %d latent, %d spin-up failures\n",
			f.Injected, f.SkippedInjections, f.TransientErrs, f.LatentErrs, f.SpinUpFailures)
		fmt.Printf("fault handling  %d retries, %d timeouts, %d fallbacks, %d evictions, %d disk failures, %d rebuilds, %d lost IOs\n",
			f.Retries, f.Timeouts, f.Fallbacks, f.Evictions, f.DiskFailures, f.Rebuilds, f.LostIOs)
	}
	if cfg.RespGoal > 0 {
		fmt.Printf("goal            %.2f ms, violated in %.1f%% of windows\n", cfg.RespGoal*1000, res.GoalViolationFrac*100)
	}
	if *metricsOut != "" {
		if err := cfg.Metrics.WriteFile(*metricsOut); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("metrics         %d samples x %d series -> %s\n",
			cfg.Metrics.Samples(), len(cfg.Metrics.Names()), *metricsOut)
	}
	if *traceOut != "" {
		if err := cfg.Trace.WriteFile(*traceOut); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("trace           %d events -> %s\n", cfg.Trace.Len(), *traceOut)
	}
	if checker != nil {
		if checker.Ok() {
			fmt.Printf("invariants      ok (0 violations)\n")
		} else {
			for _, v := range checker.Violations() {
				fmt.Fprintf(os.Stderr, "hibsim: invariant: %s\n", v.String())
			}
			fatalf("invariant checker found %d violation(s)", checker.Count())
		}
	}
}

// simFlags carries every numeric flag through validation, so the rules
// are table-testable without spawning a process.
type simFlags struct {
	duration, rate, failAt, epoch, faultRate, spinFail, sampleEvery float64
	goal, opDeadline                                                time.Duration
	groups, groupDisks, levels, retries                             int
	cacheMB                                                         int64
}

// validateFlags applies the numeric-flag rules. Table-tested in
// main_test.go.
func validateFlags(f simFlags) error {
	return cliutil.FirstError(
		cliutil.Positive("-duration", f.duration),
		cliutil.Positive("-rate", f.rate),
		cliutil.PositiveInt("-groups", f.groups),
		cliutil.PositiveInt("-group-disks", f.groupDisks),
		cliutil.PositiveInt("-levels", f.levels),
		cliutil.NonNegativeInt64("-cache-mb", f.cacheMB),
		cliutil.NonNegative("-fail-at", f.failAt),
		cliutil.NonNegative("-epoch", f.epoch),
		cliutil.NonNegative("-goal", f.goal.Seconds()),
		cliutil.Prob("-fault-rate", f.faultRate),
		cliutil.Prob("-spin-fail-rate", f.spinFail),
		cliutil.NonNegativeInt("-retries", f.retries),
		cliutil.NonNegative("-op-deadline", f.opDeadline.Seconds()),
		cliutil.NonNegative("-sample-every", f.sampleEvery),
	)
}

// runRepro replays a hibchaos reproducer: it loads the scenario, runs the
// full chaos oracle on it (armed run, repeat run, unarmed run) and reports
// the verdict. Exit status 0 means the scenario no longer fails — i.e. the
// bug it reproduced is fixed — and 1 means it still does.
func runRepro(path string) int {
	sc, err := chaos.LoadRepro(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hibsim: %v\n", err)
		return 1
	}
	fmt.Printf("repro           %s\n", path)
	fmt.Printf("scenario        %s\n", sc.String())
	start := time.Now()
	fail := chaos.Execute(sc)
	fmt.Printf("judged          %d runs in %v\n", sc.RunsPerExecute(), time.Since(start).Round(time.Millisecond))
	if fail != nil {
		fmt.Printf("verdict         FAIL (%s)\n", fail.Kind)
		fmt.Printf("detail          %s\n", fail.Detail)
		return 1
	}
	fmt.Printf("verdict         ok (scenario no longer fails)\n")
	return 0
}

// servePprof exposes net/http/pprof on addr in the background; empty addr
// disables it. The simulation does not wait for the listener: profiling a
// short run means hitting the endpoint while it executes.
func servePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "hibsim: pprof: %v\n", err)
		}
	}()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hibsim: "+format+"\n", args...)
	os.Exit(1)
}

// failingController wraps the chosen policy and injects one disk failure.
type failingController struct {
	inner sim.Controller
	at    float64
}

// Name delegates to the wrapped controller.
func (f *failingController) Name() string { return f.inner.Name() }

// Init initializes the wrapped controller and schedules the injected
// disk failure.
func (f *failingController) Init(env *sim.Env) {
	f.inner.Init(env)
	env.Engine.Schedule(f.at, func() {
		if err := env.Array.FailDisk(0, 0); err != nil {
			fmt.Fprintf(os.Stderr, "hibsim: failure injection: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "hibsim: disk 0/0 failed at t=%.0f\n", env.Engine.Now())
		}
	})
}
