package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"hibernator/hibbench/benchstat"
	"hibernator/internal/chaos"
	"hibernator/internal/invariant"
	"hibernator/internal/sim"
)

// tracedPairs is how many untraced/traced job pairs the traced run
// alternates; the overhead is the ratio of their median rates.
const tracedPairs = 3

// tracedJob is one simulation run with spans.
type tracedJob struct {
	res    *sim.Result
	run    time.Duration // the sim.Run span
	cpu    time.Duration // process CPU time across sim.Run
	events uint64
	next   time.Duration // summed Source.Next time
	calls  int64         // Source.Next calls
	ctrl   time.Duration // summed controller time
	env    *sim.Env
	inner  sim.Controller
}

// runTracedJob runs one scenario with spans around BuildRun, sim.Run,
// every Source.Next and every controller call.
func runTracedJob(sc *chaos.Scenario, tr *tracer) (tracedJob, error) {
	var j tracedJob
	root := tr.begin("sim.job", 0)
	defer tr.end(root)
	sp := tr.begin("chaos.BuildRun", root)
	r, err := sc.BuildRun()
	tr.end(sp)
	if err != nil {
		return j, err
	}
	src := &timedSource{src: r.Source, limit: r.Duration, timed: true}
	ctrl, cs := wrapController(r.Controller)
	var events atomic.Uint64
	cfg := r.Config
	cfg.Progress = &events
	completed := countCompletions(&cfg)
	sp = tr.begin("sim.Run", root)
	t0, c0 := time.Now(), cpuNow()
	res, err := sim.Run(cfg, src, ctrl, r.Duration)
	j.run, j.cpu = time.Since(t0), cpuNow()-c0
	tr.end(sp)
	tr.aggregate("trace.Source.Next", sp, src.calls, src.spent)
	for name, n := range cs.calls {
		tr.aggregate(name, sp, n, cs.spent[name])
		j.ctrl += cs.spent[name]
	}
	if err != nil {
		return j, fmt.Errorf("traced sim.Run: %w", err)
	}
	j.res, j.events, j.next, j.calls, j.env, j.inner = res, events.Load(), src.spent, src.calls, cs.env, r.Controller
	return j, checkResult(res, src.admitted, *completed)
}

// runCheckedJob runs the scenario with an armed invariant checker.
func runCheckedJob(sc *chaos.Scenario) (*sim.Result, error) {
	r, err := sc.BuildRun()
	if err != nil {
		return nil, err
	}
	cfg := r.Config
	chk := invariant.New()
	cfg.Invariants = chk
	res, err := sim.Run(cfg, r.Source, r.Controller, r.Duration)
	if err != nil {
		return nil, err
	}
	if !chk.Ok() {
		v := chk.Violations()
		first := ""
		if len(v) > 0 {
			first = fmt.Sprintf(": first %+v", v[0])
		}
		return nil, fmt.Errorf("invariant checker found %d violations%s", chk.Count(), first)
	}
	return res, nil
}

// layerRun accumulates a traced run's per-layer values and its checks.
type layerRun struct {
	values map[string]float64
	tally  benchstat.Tally
	errs   []string
}

func (l *layerRun) fail(format string, args ...any) {
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

// note records one checked operation.
func (l *layerRun) note(err error) bool {
	l.tally.Add(err == nil)
	if err != nil {
		l.fail("%v", err)
	}
	return err == nil
}

// traceSimLayers measures the simulator layers on variant 0 of the
// workload: untraced and traced runs alternate, an armed invariant
// checker runs once, and the stream is replayed through each layer.
// Every run must reproduce the untraced result bit for bit.
func traceSimLayers(w workload, seed int64, tr *tracer, l *layerRun) error {
	sc, err := w.parse(seed, 0)
	if err != nil {
		return err
	}
	ref, err := runSimJob(sc)
	if !l.note(err) {
		return fmt.Errorf("untraced reference run: %v", err)
	}
	want := chaos.FingerprintOf(ref.res)
	same := func(what string, res *sim.Result) error {
		if got := chaos.FingerprintOf(res); got != want {
			return fmt.Errorf("%s run differs from the untraced run: %+v vs %+v", what, got, want)
		}
		return nil
	}

	var untracedRates, tracedRates []float64
	var mem memDelta
	var reqs uint64
	var last tracedJob
	var runSum, nextSum, ctrlSum time.Duration
	var events, tracedReqs uint64
	var nextCalls int64
	for i := 0; i < tracedPairs; i++ {
		u, err := runSimJob(sc)
		if err == nil {
			err = same("untraced", u.res)
		}
		if !l.note(err) {
			continue
		}
		untracedRates = append(untracedRates, float64(u.res.Requests)/u.run.Seconds())
		mem.add(u.mem)
		reqs += u.res.Requests

		t, err := runTracedJob(sc, tr)
		if err == nil {
			err = same("traced", t.res)
		}
		if !l.note(err) {
			continue
		}
		tracedRates = append(tracedRates, float64(t.res.Requests)/t.cpu.Seconds())
		runSum += t.run
		nextSum += t.next
		nextCalls += t.calls
		ctrlSum += t.ctrl
		events += t.events
		tracedReqs += t.res.Requests
		last = t
	}
	res, err := runCheckedJob(sc)
	if err == nil {
		err = same("invariant-checked", res)
	}
	l.note(err)
	if last.res == nil || len(untracedRates) == 0 {
		return fmt.Errorf("no traced run succeeded")
	}

	k, err := replayLayers(sc)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}

	v := l.values
	v["runtime.gc_cpu_frac"] = mem.gcFrac()
	v["runtime.gc_cycles_per_mreq"] = float64(mem.gcCycles) / (float64(reqs) / 1e6)
	v["trace.next_ns"] = float64(nextSum.Nanoseconds()) / float64(nextCalls)
	v["trace.share"] = nextSum.Seconds() / runSum.Seconds()
	v["trace.overhead_frac"] = 1 - median(tracedRates)/median(untracedRates)
	v["simevent.events_per_req"] = float64(events) / float64(tracedReqs)
	v["simevent.ns_per_event"] = float64(runSum.Nanoseconds()) / float64(events)
	// The children of sim.Run are summed from per-call timings, so
	// nothing guarantees they fit inside it; timer overhead or a wrapping
	// mistake that made them overflow would show here.
	if bad := tr.overfull(); len(bad) > 0 {
		l.fail("spans whose children sum past their own duration: %v", bad)
	}
	if s := (nextSum + ctrlSum).Seconds() / runSum.Seconds(); s > 1 {
		l.fail("Source.Next and controller calls take %.3f of sim.Run", s)
	}

	lr := last.res
	perRun := last.run.Seconds() * 1e9
	v["cache.hit_frac"] = float64(lr.CacheHits) / float64(lr.Requests)
	v["cache.op_ns"] = k.cache.ns
	v["cache.allocs_per_op"] = k.cache.allocs
	v["raid.map_ns"] = k.raid.ns
	v["raid.allocs_per_map"] = k.raid.allocs
	v["raid.phys_per_req"] = k.physPerReq
	v["array.submit_ns"] = k.array.ns
	v["array.allocs_per_submit"] = k.array.allocs
	v["array.migrations"] = float64(lr.Migrations)
	v["array.migrated_gib"] = float64(lr.MigratedBytes) / (1 << 30)

	var ops, bg uint64
	var busy float64
	maxQ := 0
	disks := last.env.Array.Disks()
	for _, d := range disks {
		ops += d.Completed()
		bg += d.BackgroundCompleted()
		busy += d.BusyTime()
		if q := d.MaxQueueDepth(); q > maxQ {
			maxQ = q
		}
	}
	v["disk.op_ns"] = k.disk.ns
	v["disk.allocs_per_op"] = k.disk.allocs
	v["disk.ops_per_req"] = float64(ops) / float64(lr.Requests)
	v["disk.bg_ops_frac"] = float64(bg) / float64(ops)
	v["disk.busy_frac"] = busy / (float64(len(disks)) * lr.Duration)
	v["disk.max_queue"] = float64(maxQ)
	v["disk.spin_ups"] = float64(lr.SpinUps)
	v["disk.level_shifts"] = float64(lr.LevelShifts)

	var epochs uint64
	if e, ok := last.inner.(interface{ Epochs() uint64 }); ok {
		epochs = e.Epochs()
	}
	v["cr.solve_ns"] = k.cr.ns
	v["cr.epochs"] = float64(epochs)
	v["cr.share"] = k.cr.ns * float64(epochs) / perRun
	return nil
}

// traceServedLayers fills the served and obs layer metrics from a traced
// pass over the job service.
func traceServedLayers(run *servedRun, l *layerRun) {
	ok := run.okJobs()
	t, errs := run.tally()
	l.tally.Merge(t)
	if run.mismatch() {
		l.errs = append(l.errs, errs...)
	}
	v := l.values
	var lat, sub, str, res []float64
	var streamed float64
	for _, o := range ok {
		lat = append(lat, ms(o.latency))
		sub = append(sub, ms(o.submit))
		str = append(str, ms(o.stream))
		res = append(res, ms(o.stat))
		streamed += float64(o.streamBytes)
	}
	var dr []float64
	for _, r := range run.refs {
		dr = append(dr, ms(r.direct))
	}
	jobs := float64(len(run.jobs))
	if len(ok) == 0 || jobs == 0 {
		l.fail("no served job succeeded")
		return
	}
	v["served.submit_ms"] = median(sub)
	v["served.stream_ms"] = median(str)
	v["served.result_ms"] = median(res)
	v["served.overhead_ms"] = median(lat) - median(dr)
	v["served.wal_bytes_per_job"] = float64(run.walBytes) / jobs
	v["served.state_bytes_per_job"] = float64(run.stateBytes) / jobs
	v["served.replayed"] = float64(run.replayed)
	v["served.recover_ms"] = 1000 * median(run.recover)
	v["obs.stream_bytes_per_job"] = streamed / float64(len(ok))
}
