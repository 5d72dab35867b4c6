package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"hibernator/hibbench/benchstat"
	"hibernator/internal/chaos"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// setupReps is how many times a run times its set-up before its first
// job; setup_s is the median, so one slow repetition does not move it.
// A simulator run times setupPerJob more after every job, so that its
// set-up samples span the run as the reference kernel's do.
const (
	setupReps   = 31
	setupPerJob = 4
)

// simJob is one simulation: BuildRun plus sim.Run of one scenario. Its
// times are process CPU time (see cpuNow).
type simJob struct {
	build  time.Duration // chaos.Scenario.BuildRun
	run    time.Duration // sim.Run
	mem    memDelta      // runtime counters across sim.Run
	cycle0 uint64        // GC cycles completed when sim.Run started
	res    *sim.Result
}

func (j simJob) cost() time.Duration { return j.build + j.run }

// runSimJob builds and runs one scenario with tracing off. A forced GC
// first gives every job the same starting heap.
func runSimJob(sc *chaos.Scenario) (simJob, error) {
	var j simJob
	runtime.GC()
	c0 := cpuNow()
	r, err := sc.BuildRun()
	if err != nil {
		return j, err
	}
	src := &timedSource{src: r.Source, limit: r.Duration}
	cfg := r.Config
	completed := countCompletions(&cfg)
	before := newMemSample()
	after := newMemSample()
	before.read()
	res, err := sim.Run(cfg, src, r.Controller, r.Duration)
	after.read()
	j.mem = since(before, after)
	j.cycle0 = before.gcCycles
	j.build, j.run = before.cpu-c0, j.mem.cpu
	j.res = res
	if err != nil {
		return j, fmt.Errorf("sim.Run: %w", err)
	}
	return j, checkResult(res, src.admitted, *completed)
}

// countCompletions arms the run's per-request completion hook with a
// counter. The hook adds no events and changes no output.
func countCompletions(cfg *sim.Config) *uint64 {
	n := new(uint64)
	cfg.OnResponse = func(trace.Request, float64) { *n++ }
	return n
}

// checkResult holds a run's result to the accounting every run must
// satisfy: energy by state sums to the total, and the requests the
// simulator counts are exactly the ones that completed, none of them
// beyond what the workload source emitted up to the end of simulated
// time. The difference is the requests still in flight at the end.
func checkResult(res *sim.Result, emitted, completed uint64) error {
	sum := 0.0
	for _, e := range res.EnergyByState {
		sum += e
	}
	if math.Abs(sum-res.Energy) > 1e-9*math.Abs(res.Energy) {
		return fmt.Errorf("energy by state sums to %.6f J, total is %.6f J", sum, res.Energy)
	}
	if res.Requests == 0 || res.Requests != completed || completed > emitted {
		return fmt.Errorf("simulator counted %d requests; %d completed of %d the source emitted",
			res.Requests, completed, emitted)
	}
	return nil
}

// measureSetup times scenario parsing plus BuildRun, the work a run does
// before its first event, reps times, and returns the CPU times of the
// thread that does it. A repetition takes half a
// millisecond, and the process-wide clock adds the other threads' time
// in steps of a scheduler tick, so it cannot time one. A GC before each
// repetition keeps the collector's work out of all of them alike.
func measureSetup(w workload, seed int64, reps int) ([]float64, error) {
	text := w.repro(seed, 0)
	var times []float64
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < reps; i++ {
		runtime.GC()
		c0 := threadCPU()
		sc, err := chaos.ParseRepro(strings.NewReader(text))
		if err != nil {
			return nil, err
		}
		if _, err := sc.BuildRun(); err != nil {
			return nil, err
		}
		times = append(times, (threadCPU() - c0).Seconds())
	}
	return times, nil
}

// variantRefs holds the first result of every variant; each later run of
// the same scenario must reproduce it bit for bit.
type variantRefs struct {
	scs  []*chaos.Scenario
	refs []*chaos.Fingerprint
	res  []*sim.Result
}

func newVariantRefs(w workload, seed int64) (*variantRefs, error) {
	v := &variantRefs{refs: make([]*chaos.Fingerprint, w.variants), res: make([]*sim.Result, w.variants)}
	for k := 0; k < w.variants; k++ {
		sc, err := w.parse(seed, k)
		if err != nil {
			return nil, err
		}
		v.scs = append(v.scs, sc)
	}
	return v, nil
}

// check compares a result with its variant's reference, recording the
// reference on first sight.
func (v *variantRefs) check(k int, res *sim.Result) error {
	fp := chaos.FingerprintOf(res)
	if v.refs[k] == nil {
		v.refs[k], v.res[k] = &fp, res
		return nil
	}
	if fp != *v.refs[k] {
		return fmt.Errorf("variant %d (seed %d) did not reproduce: %+v vs %+v", k, v.scs[k].Seed, fp, *v.refs[k])
	}
	return nil
}

// simOutputs are the paper's energy-under-a-goal pair over all variants:
// mean energy per scenario, and the request-weighted mean response.
func (v *variantRefs) simOutputs() (energyKJ, meanRespMs float64, err error) {
	var e, rt, n float64
	for k, r := range v.res {
		if r == nil {
			return 0, 0, fmt.Errorf("variant %d never ran", k)
		}
		e += r.Energy
		rt += r.MeanResp * float64(r.Requests)
		n += float64(r.Requests)
	}
	return e / float64(len(v.res)) / 1000, rt / n * 1000, nil
}

// simRun is what a simulator workload measured with tracing off.
type simRun struct {
	setup   []float64 // CPU seconds, one per set-up repetition
	kernel  []float64 // reference kernel seconds, one per kernel run
	jobs    []simJob  // timed jobs
	tally   benchstat.Tally
	peakMiB float64
	want    *variantRefs
	errs    []string
}

// runSimWorkload sets up, warms up with one untimed job, then runs the
// variants round-robin until the time is up and every variant has run
// inside the timed region. The reference kernel runs after the set-up
// and after every job; so do further set-up repetitions.
func runSimWorkload(w workload, seed int64, seconds float64) (*simRun, error) {
	out := &simRun{}
	var err error
	if out.setup, err = measureSetup(w, seed, setupReps); err != nil {
		return nil, err
	}
	out.kernel = append(out.kernel, refSeconds())
	if out.want, err = newVariantRefs(w, seed); err != nil {
		return nil, err
	}
	runOne := func(k int) (simJob, bool) {
		j, err := runSimJob(out.want.scs[k])
		if j.res != nil {
			if cerr := out.want.check(k, j.res); err == nil {
				err = cerr
			}
		}
		if err != nil {
			out.errs = append(out.errs, fmt.Sprintf("variant %d: %v", k, err))
		}
		out.tally.Add(err == nil)
		return j, err == nil
	}
	if _, ok := runOne(0); !ok {
		return out, nil
	}
	hw := watchHeap()
	start := time.Now()
	for i := 1; time.Since(start).Seconds() < seconds || len(out.jobs) < w.variants; i++ {
		j, ok := runOne(i % w.variants)
		out.kernel = append(out.kernel, refSeconds())
		more, err := measureSetup(w, seed, setupPerJob)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, more...)
		if ok {
			out.jobs = append(out.jobs, j)
		} else if len(out.errs) > 3 {
			break
		}
	}
	// Each job's peak counts only the cycles that ended inside its
	// sim.Run, not those of the reference kernel or the set-up
	// repetitions between jobs; the run reports the median job's.
	hw.stop()
	var peaks []float64
	for _, j := range out.jobs {
		if p, ok := hw.peak(j.cycle0, j.cycle0+j.mem.gcCycles); ok {
			peaks = append(peaks, p)
		}
	}
	if len(peaks) > 0 {
		out.peakMiB = median(peaks)
	}
	return out, nil
}

// endToEnd turns a simulator run into the end-to-end metrics, host times
// in reference seconds.
func (s *simRun) endToEnd() (map[string]float64, error) {
	if len(s.jobs) == 0 {
		return nil, fmt.Errorf("no job succeeded: %s", strings.Join(s.errs, "; "))
	}
	scale := refScale(refNominal, s.kernel)
	var rates, costs []float64
	var mem memDelta
	var reqs uint64
	var costSum float64
	for _, j := range s.jobs {
		cost := j.cost().Seconds() * scale
		rates = append(rates, float64(j.res.Requests)/(j.run.Seconds()*scale))
		costs = append(costs, 1000*cost)
		costSum += cost
		mem.add(j.mem)
		reqs += j.res.Requests
	}
	energy, resp, err := s.want.simOutputs()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sim_req_per_s":    median(rates),
		"allocs_per_req":   float64(mem.allocs) / float64(reqs),
		"bytes_per_req":    float64(mem.bytes) / float64(reqs),
		"peak_heap_mb":     s.peakMiB,
		"setup_s":          median(s.setup) * scale,
		"ok_frac":          s.tally.OKFrac(),
		"sim_energy_kj":    energy,
		"sim_mean_resp_ms": resp,
		"jobs_per_s":       float64(len(s.jobs)) / costSum,
		"job_p50_ms":       percentile(costs, 50),
		"job_p95_ms":       percentile(costs, 95),
	}, nil
}

// rawRate is the median sim.Run rate in simulated requests per process
// CPU second, before scaling to reference seconds.
func (s *simRun) rawRate() float64 {
	var rates []float64
	for _, j := range s.jobs {
		rates = append(rates, float64(j.res.Requests)/j.run.Seconds())
	}
	return median(rates)
}
