package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hibernator/hibbench/benchstat"
	"hibernator/internal/chaos"
	"hibernator/internal/served"
)

// serverWorkers is the job server's worker count, and servedClients the
// closed-loop client count, on the 2-CPU host the benchmark targets. One
// client keeps one job in flight, so a job's latency is the program's
// work and waits: with two, the two jobs, the GC and the HTTP goroutines
// contend for the two CPUs, and a host a tenth slower made jobs a third
// slower, which measured the scheduler rather than the program.
const (
	serverWorkers = 2
	servedClients = 1
	// prepJobs is the size of the untimed earlier session whose state
	// directory the set-up reopens.
	prepJobs = 64
	// servedSlices is how many slices the timed session is cut into, with
	// refJobsPerBreak reference jobs after each (see refservice.go).
	// Latency and rates are taken per slice and reported from the
	// quieter quarter of the slices (see endToEnd).
	servedSlices = 30
)

// servedRef is one variant's submission and what a direct run of it
// produces: the job's result and metrics stream must match byte for byte.
type servedRef struct {
	body    []byte
	result  []byte // canonical result document without its newline
	metrics []byte // complete metrics stream
	fp      chaos.Fingerprint
	direct  time.Duration // wall time of the direct run
}

// servedRefs runs every variant through served.DirectRun, the load
// harness's oracle.
func servedRefs(w workload, seed int64) ([]*servedRef, error) {
	var refs []*servedRef
	for k := 0; k < w.variants; k++ {
		sc, err := w.parse(seed, k)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		result, metrics, _, err := served.DirectRun(sc, false)
		if err != nil {
			return nil, fmt.Errorf("direct run of variant %d: %w", k, err)
		}
		ref := &servedRef{
			body:    []byte(w.repro(seed, k)),
			result:  bytes.TrimSuffix(result, []byte("\n")),
			metrics: metrics,
			direct:  time.Since(t0),
		}
		if err := json.Unmarshal(ref.result, &ref.fp); err != nil {
			return nil, fmt.Errorf("direct run of variant %d: result: %w", k, err)
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// session is a job server listening on a loopback port.
type session struct {
	srv    *served.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startSession(opts *served.Options) (*session, error) {
	srv, err := served.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("served.Open: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &session{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * servedClients}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serve loop to return, and
// drains the job server.
func (s *session) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	return err
}

// jobOutcome is one closed-loop attempt.
type jobOutcome struct {
	ok, refused          bool
	err                  string
	latency              time.Duration // POST sent to result in hand
	submit, stream, stat time.Duration // the three HTTP calls
	streamBytes          int
	requests             uint64
}

// doJob submits a scenario, reads its metrics stream to EOF, fetches the
// result, and compares both with the direct run.
func (s *session) doJob(ref *servedRef, tr *tracer) jobOutcome {
	var o jobOutcome
	root := tr.begin("served.job", 0)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.begin("http.POST /jobs", root)
	resp, err := s.client.Post(s.base+"/jobs", "text/plain", bytes.NewReader(ref.body))
	if err != nil {
		tr.end(sp)
		o.err = "submit: " + err.Error()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	o.submit = time.Since(t0)
	switch {
	case err != nil:
		o.err = "submit: " + err.Error()
		return o
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		o.refused, o.err = true, fmt.Sprintf("refused with %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		wait := 50 * time.Millisecond
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && time.Duration(ra)*time.Second < wait {
			wait = time.Duration(ra) * time.Second
		}
		time.Sleep(wait)
		return o
	case resp.StatusCode != http.StatusAccepted:
		o.err = fmt.Sprintf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return o
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		o.err = fmt.Sprintf("submit response %q: %v", body, err)
		return o
	}

	t1 := time.Now()
	sp = tr.begin("http.GET /jobs/{id}/stream", root)
	streamed, err := s.get("/jobs/" + acc.ID + "/stream")
	tr.end(sp)
	o.stream = time.Since(t1)
	if err != nil {
		o.err = "stream: " + err.Error()
		return o
	}
	o.streamBytes = len(streamed)

	t2 := time.Now()
	sp = tr.begin("http.GET /jobs/{id}", root)
	st, err := s.status(acc.ID)
	tr.end(sp)
	o.stat = time.Since(t2)
	o.latency = time.Since(t0)
	switch {
	case err != nil:
		o.err = "result: " + err.Error()
	case st.State != served.StateComplete:
		o.err = fmt.Sprintf("job %s ended %s: %s", acc.ID, st.State, st.Error)
	case !bytes.Equal(st.Result, ref.result):
		o.err = fmt.Sprintf("job %s result %s differs from the direct run's %s", acc.ID, st.Result, ref.result)
	case !bytes.Equal(streamed, ref.metrics):
		o.err = fmt.Sprintf("job %s metrics stream (%d bytes) differs from the direct run's (%d bytes)",
			acc.ID, len(streamed), len(ref.metrics))
	default:
		o.ok, o.requests = true, ref.fp.Requests
	}
	return o
}

func (s *session) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, err
}

// status fetches a job's status. The stream ends when the job reaches a
// terminal state, so one GET normally suffices; a non-terminal answer is
// polled for up to ten seconds.
func (s *session) status(id string) (served.JobStatus, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st served.JobStatus
		b, err := s.get("/jobs/" + id)
		if err != nil {
			return st, err
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return st, err
		}
		switch st.State {
		case served.StateComplete, served.StateFailed, served.StateCanceled:
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// closedLoop runs servedClients clients that each send their next job
// only once the previous one is done, cycling through the variants,
// until maxJobs attempts were made (maxJobs > 0) or the duration is up.
func (s *session) closedLoop(refs []*servedRef, maxJobs int, d time.Duration, tr *tracer) []jobOutcome {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	per := make([][]jobOutcome, servedClients)
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if (maxJobs > 0 && n >= maxJobs) || (maxJobs == 0 && time.Now().After(deadline)) {
					return
				}
				per[c] = append(per[c], s.doJob(refs[n%len(refs)], tr))
			}
		}(c)
	}
	wg.Wait()
	var out []jobOutcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// servedRun is what one pass over the job service measured.
type servedRun struct {
	refs        []*servedRef
	setup       []float64 // CPU seconds per reopen
	setupKernel []float64 // reference kernel seconds around the reopens
	recover     []float64 // wall seconds per reopen, fsyncs and reads included
	replayed    uint64    // jobs the last reopen rebuilt from the log
	prep, jobs  []jobOutcome
	sliceEnds   []int         // jobs[sliceEnds[i-1]:sliceEnds[i]] ran in slice i
	sliceSecs   []float64     // wall seconds of each slice
	elapsed     time.Duration // wall time of the timed slices
	refJobs     []float64     // wall milliseconds of each reference job
	mem         memDelta
	peakMiB     float64
	walBytes    int64 // WAL growth during the timed session
	stateBytes  int64 // state directory growth during the timed session
}

// runServed serves refs from a fresh state directory: an untimed session
// leaves state behind, set-up reopens it until ready, and the timed
// session runs the closed loop on it.
func runServed(refs []*servedRef, dir string, d time.Duration, tr *tracer) (*servedRun, error) {
	state := filepath.Join(dir, "state")
	if err := os.RemoveAll(state); err != nil {
		return nil, err
	}
	defer os.RemoveAll(state)
	opts := &served.Options{StateDir: state, Workers: serverWorkers}
	out := &servedRun{refs: refs}

	sess, err := startSession(opts)
	if err != nil {
		return nil, err
	}
	out.prep = sess.closedLoop(refs, prepJobs, 0, nil)
	if err := sess.close(); err != nil {
		return nil, err
	}

	// The reopens take a tenth of a second; the single-thread reference
	// kernel runs three times on each side of them to scale their CPU
	// time as the simulator workloads' set-up is scaled.
	for i := 0; i < 3; i++ {
		out.setupKernel = append(out.setupKernel, refSeconds())
	}
	for i := 0; i < setupReps; i++ {
		t0, c0 := time.Now(), cpuNow()
		srv, err := served.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		for !srv.Ready() {
			time.Sleep(50 * time.Microsecond)
		}
		out.setup = append(out.setup, (cpuNow() - c0).Seconds())
		out.recover = append(out.recover, time.Since(t0).Seconds())
		out.replayed = srv.Stats().Replayed
		srv.Close()
	}
	for i := 0; i < 3; i++ {
		out.setupKernel = append(out.setupKernel, refSeconds())
	}

	sess, err = startSession(opts)
	if err != nil {
		return nil, err
	}
	walBefore, stateBefore := fileSize(filepath.Join(state, "jobs.jsonl")), dirSize(state)
	// The timed session runs in servedSlices slices with reference jobs
	// before and between them, while no benchmark job is in flight; the
	// counters, the clock and the heap peak cover the slices only.
	rs, err := startRefService(dir)
	if err != nil {
		return nil, err
	}
	defer rs.close()
	hw := watchHeap()
	defer hw.stop()
	before := newMemSample()
	after := newMemSample()
	var peaks []float64
	if err := rs.jobs(refJobsPerBreak, &out.refJobs); err != nil {
		return nil, err
	}
	for i := 0; i < servedSlices; i++ {
		before.read()
		t0 := time.Now()
		out.jobs = append(out.jobs, sess.closedLoop(refs, 0, d/servedSlices, tr)...)
		secs := time.Since(t0)
		out.elapsed += secs
		out.sliceEnds = append(out.sliceEnds, len(out.jobs))
		out.sliceSecs = append(out.sliceSecs, secs.Seconds())
		after.read()
		out.mem.add(since(before, after))
		if p, ok := hw.peak(before.gcCycles, after.gcCycles); ok {
			peaks = append(peaks, p)
		}
		if err := rs.jobs(refJobsPerBreak, &out.refJobs); err != nil {
			return nil, err
		}
	}
	if len(peaks) > 0 {
		out.peakMiB = median(peaks)
	}
	if err := sess.close(); err != nil {
		return nil, err
	}
	out.walBytes = fileSize(filepath.Join(state, "jobs.jsonl")) - walBefore
	out.stateBytes = dirSize(state) - stateBefore
	return out, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// tally counts every attempt of both sessions; refusals and mismatches
// fail.
func (r *servedRun) tally() (benchstat.Tally, []string) {
	var t benchstat.Tally
	var errs []string
	for _, set := range [][]jobOutcome{r.prep, r.jobs} {
		for _, o := range set {
			t.Add(o.ok)
			if !o.ok && len(errs) < 5 {
				errs = append(errs, o.err)
			}
		}
	}
	return t, errs
}

// mismatch reports whether any attempt failed for a reason other than
// an explicit refusal: a wrong result or stream, or a failed call.
func (r *servedRun) mismatch() bool {
	for _, set := range [][]jobOutcome{r.prep, r.jobs} {
		for _, o := range set {
			if !o.ok && !o.refused {
				return true
			}
		}
	}
	return false
}

// okJobs returns the timed session's successful jobs.
func (r *servedRun) okJobs() []jobOutcome {
	var out []jobOutcome
	for _, o := range r.jobs {
		if o.ok {
			out = append(out, o)
		}
	}
	return out
}

// simOutputsOf averages the variants' simulated energy and response time.
func simOutputsOf(refs []*servedRef) (energyKJ, meanRespMs float64) {
	var e, rt, n float64
	for _, r := range refs {
		e += r.fp.Energy
		rt += r.fp.MeanResp * float64(r.fp.Requests)
		n += float64(r.fp.Requests)
	}
	return e / float64(len(refs)) / 1000, rt / n * 1000
}

// endToEnd turns the timed session into the end-to-end metrics, host
// times in reference units: a job latency percentile is scaled by the
// nominal over the same percentile of the reference jobs, a rate by the
// reference jobs' median over its nominal. Latency percentiles and rates
// are taken per slice. Other tenants of the host slow the service in
// bursts of seconds, and the reference jobs, which run between slices,
// catch only part of a burst; a burst only ever slows the service. So
// latencies are the lower quartile over the slices of each slice's
// percentile, and rates the upper quartile: the run's quieter quarter.
// A program change that slows every job moves them as it moves the mean.
func (r *servedRun) endToEnd() (map[string]float64, error) {
	if len(r.okJobs()) == 0 {
		_, errs := r.tally()
		return nil, fmt.Errorf("no job succeeded: %v", errs)
	}
	ref50, ref95 := percentile(r.refJobs, 50), percentile(r.refJobs, 95)
	var p50, p95, jobRate, reqRate []float64
	var allReqs uint64
	start := 0
	for i, end := range r.sliceEnds {
		var lat []float64
		var reqs uint64
		for _, o := range r.jobs[start:end] {
			if o.ok {
				lat = append(lat, ms(o.latency))
				reqs += o.requests
			}
		}
		start = end
		allReqs += reqs
		secs := r.sliceSecs[i] * refJobP50Nominal / ref50
		jobRate = append(jobRate, float64(len(lat))/secs)
		reqRate = append(reqRate, float64(reqs)/secs)
		if len(lat) > 0 {
			p50 = append(p50, percentile(lat, 50))
			p95 = append(p95, percentile(lat, 95))
		}
	}
	t, _ := r.tally()
	energy, resp := simOutputsOf(r.refs)
	return map[string]float64{
		"sim_req_per_s":    percentile(reqRate, 75),
		"allocs_per_req":   float64(r.mem.allocs) / float64(allReqs),
		"bytes_per_req":    float64(r.mem.bytes) / float64(allReqs),
		"peak_heap_mb":     r.peakMiB,
		"setup_s":          median(r.setup) * refScale(refNominal, r.setupKernel),
		"ok_frac":          t.OKFrac(),
		"sim_energy_kj":    energy,
		"sim_mean_resp_ms": resp,
		"jobs_per_s":       percentile(jobRate, 75),
		"job_p50_ms":       percentile(p50, 25) * refJobP50Nominal / ref50,
		"job_p95_ms":       percentile(p95, 25) * refJobP95Nominal / ref95,
	}, nil
}
