// Package sim wires a workload, the controller cache, the disk array and
// an energy-management policy into one run, and collects the quantities
// the paper's evaluation reports: energy (total and by state), response
// times (mean and tail), goal violations, spin/shift/migration activity.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"hibernator/internal/array"
	"hibernator/internal/cache"
	"hibernator/internal/diskmodel"
	"hibernator/internal/fault"
	"hibernator/internal/invariant"
	"hibernator/internal/obs"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
	"hibernator/internal/snapshot"
	"hibernator/internal/stats"
	"hibernator/internal/trace"
)

// CacheHitLatency is the service time of a request absorbed entirely by
// the controller cache.
const CacheHitLatency = 0.0001

// Config describes one simulation run.
type Config struct {
	Spec       diskmodel.Spec
	Groups     int
	GroupDisks int
	Level      raid.Level
	StripeUnit int64

	ExtentBytes int64
	Occupancy   float64
	SpareDisks  int

	// CacheBytes = 0 disables the controller cache entirely.
	CacheBytes    int64
	CacheBlock    int64   // default 64 KiB
	DestagePeriod float64 // default 1 s
	DestageMax    int     // dirty blocks per destage tick, default 64

	// RespGoal is the response-time limit policies must honor (seconds).
	RespGoal float64
	// RespWindow is the observation window for goal checking (default 60 s).
	RespWindow float64

	// SampleEvery > 0 records a time-series point each interval (F9).
	SampleEvery float64

	// Warmup excludes the first seconds from the reported response-time
	// statistics and goal-violation accounting (policies still see all
	// observations). Energy is always accounted for the whole run.
	Warmup float64

	Seed               int64
	InitialLevel       int // defaults to full speed
	ExpectedRotLatency bool
	// Scheduler is the per-disk queue discipline (default FCFS).
	Scheduler diskmodel.Scheduler

	// Retry is the array's reaction to faults (retries, deadlines, the
	// disk health tracker). The zero value disables it entirely.
	Retry array.RetryPolicy
	// Faults is the injection schedule (nil = no faults). It is armed on
	// the run's engine before the first request.
	Faults *fault.Schedule

	// Metrics, when non-nil, receives the standard instrument set (see
	// internal/sim/obs.go and OBSERVABILITY.md) sampled every
	// ObsSampleEvery simulated seconds. Nil is a strict no-op: no extra
	// events are scheduled and no extra bytes are allocated, so runs
	// without it are byte-identical to runs before the layer existed.
	Metrics *obs.Registry
	// Trace, when non-nil, receives the run's policy-decision events
	// (speed shifts, migrations, boost activity, fault handling). Nil is
	// a strict no-op.
	Trace *obs.Trace
	// ObsSampleEvery is the Metrics sampling interval in simulated
	// seconds (default: RespWindow). Ignored when Metrics is nil.
	ObsSampleEvery float64

	// OnResponse, when non-nil, receives every foreground request's
	// logical completion: the request as the workload emitted it (tenant
	// tag included) plus its measured response time in seconds. It fires
	// once per request — cache hits, routed requests (MAID) and multi-miss
	// fan-outs included — at the simulated instant the harness records the
	// response. Nil is a strict no-op: the hook adds no events and does
	// not change any output byte. internal/fleet uses it for per-tenant
	// latency attribution.
	OnResponse func(r trace.Request, latency float64)

	// Context, when non-nil, cancels the run cooperatively: Run checks it
	// between event batches and returns ctx.Err() once it is done or
	// cancelled. Nil keeps the legacy hot loop untouched.
	Context context.Context

	// Progress, when non-nil, is kept loosely up to date with the number
	// of events the run has fired: the run loop publishes it every few
	// events and Run stores the exact total before returning. It is the
	// only run state another goroutine may read while the simulation
	// executes — the job server derives per-job progress from it. Nil adds
	// no work.
	Progress *atomic.Uint64

	// Invariants, when non-nil, cross-checks the run's accounting while it
	// executes: IO conservation, per-disk state durations and energy
	// integrals, state-machine legality, migration/slot bookkeeping and
	// cache counters (see internal/invariant). Nil is a strict no-op — no
	// extra events, no extra allocations, byte-identical output.
	Invariants *invariant.Checker

	// SnapshotEvery > 0 captures a full deterministic state snapshot at
	// every multiple of this simulated time and hands it to SnapshotSink.
	// Capture happens between events and is a pure read, so a run with
	// snapshots enabled is byte-identical to one without. 0 disables
	// periodic capture.
	SnapshotEvery float64
	// SnapshotSink receives each periodic snapshot. A nil sink with
	// SnapshotEvery set still exercises capture (useful in tests); sink
	// errors abort the run.
	SnapshotSink func(*snapshot.State) error
	// ResumeFrom, when non-nil, resumes the run from a snapshot: the
	// config section is validated up front, the deterministic prefix is
	// replayed from t=0 with Metrics/Trace rows before the snapshot epoch
	// suppressed, and at the epoch the re-derived state is compared entry
	// by entry against the snapshot — any divergence aborts the run
	// naming the first mismatched key. The final Result is byte-identical
	// to an uninterrupted run's, and the exported metric/trace streams
	// are exactly the uninterrupted streams' tails from the epoch on.
	ResumeFrom *snapshot.State
	// Watchdog, when any of its limits is set, aborts a stuck or runaway
	// run with a *WatchdogError carrying diagnostics. It never perturbs a
	// healthy run's output.
	Watchdog *Watchdog
}

func (c *Config) applyDefaults() error {
	if c.CacheBlock == 0 {
		c.CacheBlock = 64 << 10
	}
	if c.DestagePeriod == 0 {
		c.DestagePeriod = 1.0
	}
	if c.DestageMax == 0 {
		c.DestageMax = 64
	}
	if c.RespWindow == 0 {
		c.RespWindow = 60
	}
	if c.InitialLevel == 0 {
		c.InitialLevel = c.Spec.FullLevel()
	}
	if c.RespGoal < 0 {
		return fmt.Errorf("sim: negative response goal")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("sim: negative warmup")
	}
	if c.ObsSampleEvery < 0 {
		return fmt.Errorf("sim: negative metrics sampling interval")
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("sim: negative snapshot interval")
	}
	if c.ObsSampleEvery == 0 {
		c.ObsSampleEvery = c.RespWindow
	}
	return nil
}

// Env is the control surface a policy sees.
type Env struct {
	Engine *simevent.Engine
	Array  *array.Array
	Cfg    *Config

	// RespWindow holds foreground response times over the trailing
	// Cfg.RespWindow seconds; RespCum over the whole run. The harness
	// feeds both; policies read them.
	RespWindow *stats.WindowTracker
	RespCum    *stats.CumulativeTracker

	// Trace is the run's decision trace (Cfg.Trace; nil when the run is
	// unobserved). Emitting to a nil trace is a no-op, so policies call
	// env.Trace.Event(...) without guards.
	Trace *obs.Trace
	// Metrics is the run's registry (Cfg.Metrics; may be nil). Policies
	// that want bespoke instruments register them in Init, before the
	// first sample.
	Metrics *obs.Registry
}

// Goal returns the response-time limit (0 = none).
func (e *Env) Goal() float64 { return e.Cfg.RespGoal }

// Controller is an energy-management policy. Init runs before the first
// request; policies schedule their own timers on env.Engine.
type Controller interface {
	Name() string
	Init(env *Env)
}

// ArrivalObserver is implemented by policies that watch logical arrivals.
type ArrivalObserver interface {
	OnArrival(r trace.Request)
}

// CompletionObserver is implemented by policies that watch logical
// completions.
type CompletionObserver interface {
	OnComplete(latency float64, write bool)
}

// Router is implemented by policies that intercept requests before the
// controller cache and array (MAID's cache disks). If Route returns true
// the policy has taken ownership and must call finish exactly once when
// the request completes; the harness then records the response time.
type Router interface {
	Route(r trace.Request, finish func()) bool
}

// TimePoint is one sample of the run's time series.
type TimePoint struct {
	T              float64
	WindowMeanResp float64
	FullSpeedDisks int
	StandbyDisks   int
}

// Result aggregates one run.
type Result struct {
	Scheme   string
	Duration float64

	Requests  uint64
	MeanResp  float64
	P95Resp   float64
	P99Resp   float64
	MaxResp   float64
	CacheHits uint64 // requests absorbed entirely by the cache

	Energy        float64 // joules, all disks
	EnergyByState map[string]float64

	SpinUps, SpinDowns, LevelShifts uint64
	Migrations, MigratedBytes       uint64
	Destages                        uint64

	// GoalViolationFrac is the fraction of observation windows whose mean
	// response time exceeded the goal (0 when no goal set).
	GoalViolationFrac float64

	// Fault accounting: all zero in fault-free runs.
	Faults FaultSummary

	Series []TimePoint
}

// FaultSummary aggregates the run's fault activity: what was injected,
// how the disks misbehaved, and how the array reacted.
type FaultSummary struct {
	Injected, SkippedInjections int // scripted events applied / refused

	TransientErrs  uint64 // ops failed by the transient model
	LatentErrs     uint64 // reads failed by latent sector ranges
	SpinUpFailures uint64 // failed spin-up attempts

	Retries   uint64 // same-disk retries issued by the array
	Timeouts  uint64 // attempts abandoned at the op deadline
	Fallbacks uint64 // ops served through redundancy

	Evictions    uint64 // disks evicted by the error tracker
	DiskFailures uint64 // fail-stop failures (injected + evictions)
	Rebuilds     uint64 // completed rebuilds onto spares
	LostIOs      uint64 // ops with no redundancy left
}

// EnergyVs returns this run's energy as a fraction of a baseline's.
func (r *Result) EnergyVs(base *Result) float64 {
	if base.Energy == 0 {
		return math.Inf(1)
	}
	return r.Energy / base.Energy
}

// SavingsVs returns 1 - EnergyVs, the paper's "energy savings".
func (r *Result) SavingsVs(base *Result) float64 {
	return 1 - r.EnergyVs(base)
}

// Run executes the workload against the configured array under the given
// policy for `duration` simulated seconds.
func Run(cfg Config, workload trace.Source, ctrl Controller, duration float64) (*Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, fmt.Errorf("sim: duration must be positive")
	}
	engine := simevent.New()
	arr, err := array.New(array.Config{
		Engine:             engine,
		Spec:               &cfg.Spec,
		Groups:             cfg.Groups,
		GroupDisks:         cfg.GroupDisks,
		Level:              cfg.Level,
		StripeUnit:         cfg.StripeUnit,
		ExtentBytes:        cfg.ExtentBytes,
		Occupancy:          cfg.Occupancy,
		SpareDisks:         cfg.SpareDisks,
		Seed:               cfg.Seed,
		InitialLevel:       cfg.InitialLevel,
		ExpectedRotLatency: cfg.ExpectedRotLatency,
		Scheduler:          cfg.Scheduler,
		Retry:              cfg.Retry,
		Trace:              cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	if err := cfg.Faults.Arm(engine, arr); err != nil {
		return nil, err
	}
	env := &Env{
		Engine:     engine,
		Array:      arr,
		Cfg:        &cfg,
		RespWindow: stats.NewWindowTracker(cfg.RespWindow, 60),
		RespCum:    &stats.CumulativeTracker{},
		Trace:      cfg.Trace,
		Metrics:    cfg.Metrics,
	}

	res := &Result{Scheme: ctrl.Name(), Duration: duration}
	respW := stats.Welford{}
	respPct := stats.NewReservoir(16384, cfg.Seed+104729)

	arrivalObs, _ := ctrl.(ArrivalObserver)
	completeObs, _ := ctrl.(CompletionObserver)
	router, _ := ctrl.(Router)

	var sampler *obsSampler // nil unless cfg.Metrics is set

	recordResponse := func(lat float64, write bool) {
		now := engine.Now()
		if now >= cfg.Warmup {
			res.Requests++
			respW.Add(lat)
			respPct.Add(lat)
		}
		env.RespWindow.Observe(now, lat)
		env.RespCum.Observe(lat)
		if completeObs != nil {
			completeObs.OnComplete(lat, write)
		}
		if sampler != nil {
			sampler.onComplete(now, lat)
		}
	}

	var ctrlCache *cache.Cache
	if cfg.CacheBytes > 0 {
		ctrlCache = cache.New(cfg.CacheBytes, cfg.CacheBlock)
	}

	// Arm the invariant checker before the controller or any event runs, so
	// it observes every transition from the initial configuration on.
	if cfg.Invariants != nil {
		cfg.Invariants.Attach(engine, arr, ctrlCache, cfg.Metrics)
	}

	destage := func(ranges []cache.Range) {
		for _, rg := range ranges {
			off, size := clampRange(rg.Off, rg.Size, arr.LogicalBytes())
			if size <= 0 {
				continue
			}
			arr.SubmitBackground(off, size, true, nil)
		}
	}

	// Every completion path records through reqs, so the per-request hook
	// sees each request exactly once when it is armed.
	reqs := &requestPool{engine: engine, record: func(r trace.Request, lat float64) {
		recordResponse(lat, r.Write)
		if cfg.OnResponse != nil {
			cfg.OnResponse(r, lat)
		}
	}}

	process := func(r trace.Request) {
		if sampler != nil {
			sampler.onArrival(engine.Now())
		}
		if arrivalObs != nil {
			arrivalObs.OnArrival(r)
		}
		rq := reqs.get(r)
		if router != nil && router.Route(r, rq.routedFn) {
			return
		}
		if ctrlCache == nil {
			arr.Submit(r.Off, r.Size, r.Write, rq.arrayFn)
			return
		}
		if r.Write {
			// Write-back: absorbed at cache speed; evictions destage in
			// the background.
			destage(ctrlCache.Write(r.Off, r.Size))
			res.CacheHits++
			engine.Schedule(CacheHitLatency, rq.hitFn)
			return
		}
		misses, evictions := ctrlCache.Read(r.Off, r.Size)
		destage(evictions)
		if len(misses) == 0 {
			res.CacheHits++
			engine.Schedule(CacheHitLatency, rq.hitFn)
			return
		}
		rq.remaining = len(misses)
		for _, m := range misses {
			off, size := clampRange(m.Off, m.Size, arr.LogicalBytes())
			if size <= 0 {
				rq.remaining--
				continue
			}
			arr.Submit(off, size, false, rq.missFn)
		}
		if rq.remaining == 0 { // whole request clamped away (volume edge)
			rq.complete(CacheHitLatency)
		}
	}

	// Arrival pump: schedule each request lazily at its timestamp. Only
	// one arrival is ever pending, so one callback serves them all.
	var (
		next   trace.Request
		arrive func()
	)
	pump := func() {
		r, ok := workload.Next()
		if !ok || r.Time > duration {
			return
		}
		at := r.Time
		if at < engine.Now() {
			at = engine.Now()
		}
		next = r
		engine.At(at, arrive)
	}
	arrive = func() {
		process(next)
		pump()
	}

	ctrl.Init(env)

	// Goal-violation bookkeeping.
	var windows, violations int
	if cfg.RespGoal > 0 {
		simevent.NewTicker(engine, cfg.RespWindow, func(now float64) {
			if now < cfg.Warmup {
				return
			}
			mean, n := env.RespWindow.Mean(now)
			if n == 0 {
				return
			}
			windows++
			if mean > cfg.RespGoal {
				violations++
			}
		})
	}
	// Periodic destage of aged dirty blocks.
	if ctrlCache != nil {
		simevent.NewTicker(engine, cfg.DestagePeriod, func(float64) {
			destage(ctrlCache.FlushOldest(cfg.DestageMax))
		})
	}
	// Time-series sampling.
	if cfg.SampleEvery > 0 {
		simevent.NewTicker(engine, cfg.SampleEvery, func(now float64) {
			mean, _ := env.RespWindow.Mean(now)
			full, standby := 0, 0
			for _, d := range arr.Disks() {
				switch {
				case d.State() == diskmodel.Standby:
					standby++
				case d.Level() == cfg.Spec.FullLevel() && d.State() != diskmodel.Standby:
					full++
				}
			}
			res.Series = append(res.Series, TimePoint{
				T: now, WindowMeanResp: mean, FullSpeedDisks: full, StandbyDisks: standby,
			})
		})
	}
	// Metrics sampling: one row at t=0 (the initial configuration), then
	// one per ObsSampleEvery. Unobserved runs schedule nothing here.
	if cfg.Metrics != nil {
		sampler = newObsSampler(&cfg, env, arr, engine, ctrlCache)
		engine.Schedule(0, func() { sampler.sample(engine.Now()) })
		simevent.NewTicker(engine, cfg.ObsSampleEvery, func(now float64) {
			sampler.sample(now)
		})
	}

	// Snapshot boundaries: periodic capture, and on a resumed run the
	// one-shot verification at the snapshot epoch (see snapshot.go).
	var snap *snapCtl
	if cfg.SnapshotEvery > 0 || cfg.ResumeFrom != nil {
		refs := &snapRefs{
			cfg: &cfg, scheme: ctrl.Name(), duration: duration,
			engine: engine, arr: arr, cache: ctrlCache,
			env: env, respW: &respW, respPct: respPct, res: res,
			windows: &windows, viols: &violations, ctrl: ctrl,
		}
		snap = &snapCtl{every: cfg.SnapshotEvery, k: 1, verifyAt: -1,
			duration: duration, capture: refs.capture, sink: cfg.SnapshotSink}
		if cfg.ResumeFrom != nil {
			t, err := cfg.ResumeFrom.Float("t")
			if err != nil {
				return nil, err
			}
			if t <= 0 || t > duration {
				return nil, fmt.Errorf("sim: resume snapshot epoch t=%v outside (0, %v]", t, duration)
			}
			if err := refs.verifyResumeConfig(cfg.ResumeFrom); err != nil {
				return nil, err
			}
			snap.verifyAt = t
			snap.verify = cfg.ResumeFrom
			cfg.Metrics.SuppressBefore(t)
			cfg.Trace.SuppressBefore(t)
		}
	}
	// Watchdog: derive a cancellable context the run loops poll; the
	// monitor goroutine trips it on wall-clock or stall limits.
	var wd *watchdogState
	if cfg.Watchdog.enabled() {
		base := cfg.Context
		if base == nil {
			base = context.Background()
		}
		wctx, cancel := context.WithCancel(base)
		cfg.Context = wctx
		wd = startWatchdog(cfg.Watchdog, cancel)
		defer cancel()
		defer wd.halt()
	}

	pump()
	if cfg.Progress != nil {
		defer func() { cfg.Progress.Store(engine.Processed()) }()
	}
	if err := runEngine(&cfg, engine, duration, snap, wd); err != nil {
		if wd != nil {
			if reason := wd.tripReason(); reason != "" {
				return nil, &WatchdogError{
					Reason: reason, Events: engine.Processed(), Pending: engine.Pending(),
					Elapsed: wd.now().Sub(wd.start), LastTrace: cfg.Trace.Tail(wdTraceTail),
				}
			}
		}
		return nil, err
	}

	res.MeanResp = respW.Mean()
	if respW.Count() > 0 { // an empty accumulator's Max is NaN, not 0
		res.MaxResp = respW.Max()
	}
	res.P95Resp = respPct.Quantile(0.95)
	res.P99Resp = respPct.Quantile(0.99)
	res.Energy = arr.TotalEnergy()
	res.EnergyByState = arr.EnergyByState()
	for _, d := range arr.Disks() {
		res.SpinUps += d.SpinUps()
		res.SpinDowns += d.SpinDowns()
		res.LevelShifts += d.LevelShifts()
	}
	res.Migrations, res.MigratedBytes = arr.Migrations()
	if ctrlCache != nil {
		_, _, res.Destages = ctrlCache.Stats()
	}
	fs := arr.FaultStats()
	res.Faults.Retries = fs.Retries
	res.Faults.Timeouts = fs.Timeouts
	res.Faults.Fallbacks = fs.Fallbacks
	res.Faults.Evictions = fs.Evictions
	res.Faults.DiskFailures = arr.DiskFailures()
	res.Faults.Rebuilds = arr.Rebuilds()
	res.Faults.LostIOs = arr.LostIOs()
	for _, d := range arr.Disks() {
		res.Faults.TransientErrs += d.TransientErrors()
		res.Faults.LatentErrs += d.LatentErrors()
		res.Faults.SpinUpFailures += d.SpinUpFailures()
	}
	if st := cfg.Faults.Stats(); st != (fault.Stats{}) {
		res.Faults.Injected, res.Faults.SkippedInjections = st.Injected, st.Skipped
	}
	if windows > 0 {
		res.GoalViolationFrac = float64(violations) / float64(windows)
	}
	if cfg.Invariants != nil {
		cfg.Invariants.Finish(engine.Now())
	}
	return res, nil
}

// LogicalBytes reports the logical volume size the configuration yields —
// workload generators size themselves against it before the real run.
func LogicalBytes(cfg Config) (int64, error) {
	if err := cfg.applyDefaults(); err != nil {
		return 0, err
	}
	arr, err := array.New(array.Config{
		Engine:      simevent.New(),
		Spec:        &cfg.Spec,
		Groups:      cfg.Groups,
		GroupDisks:  cfg.GroupDisks,
		Level:       cfg.Level,
		StripeUnit:  cfg.StripeUnit,
		ExtentBytes: cfg.ExtentBytes,
		Occupancy:   cfg.Occupancy,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return 0, err
	}
	return arr.LogicalBytes(), nil
}

// clampRange trims a cache-block-aligned range to the logical volume (the
// last block may overhang the volume end).
func clampRange(off, size, limit int64) (int64, int64) {
	if off >= limit {
		return 0, 0
	}
	if off+size > limit {
		size = limit - off
	}
	return off, size
}
