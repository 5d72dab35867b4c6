// Command hibload drives a hibserved instance with many concurrent
// clients and verifies the service keeps the simulator's contracts
// under load:
//
//   - every job's result is byte-identical to a direct in-process
//     sim.Run of the same scenario (and, with -verify-streams, every
//     job's metrics stream matches the direct exporter output);
//   - backpressure is explicit: refused submissions carry 429 +
//     Retry-After, are retried until admitted, and none are lost —
//     submitted = completed, always;
//   - the job table stays bounded: GET /jobs never reports more than
//     -table jobs alive.
//
// Usage:
//
//	hibload -self -clients 64 -jobs 500          # self-hosted server
//	hibload -addr http://localhost:8080 -jobs 500
//	hibload -self -suspend                       # also exercise suspend/resume
//	hibload -crashloop 5 -served-bin ./hibserved -clients 32 -jobs 200
//	hibload -self -quota-probe                   # also probe per-client quotas
//
// With -self the harness embeds its own server (deliberately small
// table and backlog, so backpressure actually fires) on an ephemeral
// port. With -crashloop N it instead spawns a real hibserved process on
// a durable -state-dir and kill -9s it N times while the fleet works,
// asserting nothing is lost, duplicated, or corrupted across restarts
// (see crashloop.go for the oracle). Exit status 0 means every
// assertion held.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hibernator/internal/chaos"
	"hibernator/internal/scenario"
	"hibernator/internal/served"
)

func main() {
	var (
		addr      = flag.String("addr", "", "server base URL (empty with -self)")
		self      = flag.Bool("self", false, "embed a server in-process on an ephemeral port")
		clients   = flag.Int("clients", 64, "concurrent client goroutines")
		jobs      = flag.Int("jobs", 500, "total jobs to submit")
		distinct  = flag.Int("distinct", 8, "distinct scenarios cycled across jobs")
		seed      = flag.Int64("seed", 1, "scenario generator seed")
		simT      = flag.Float64("sim-duration", 45, "simulated seconds per job scenario")
		table     = flag.Int("table", 64, "-self server job-table bound (and the bound asserted via GET /jobs)")
		backlog   = flag.Int("backlog", 16, "-self server backlog bound")
		workers   = flag.Int("workers", 0, "-self server worker count (0 = GOMAXPROCS)")
		verify    = flag.Bool("verify-streams", true, "byte-compare every job's metrics stream against the direct exporter")
		suspend   = flag.Bool("suspend", false, "also exercise suspend/resume once and verify the stream tail")
		memBudget = flag.Uint64("mem-budget-mb", 0, "fail if client+embedded-server HeapAlloc exceeds this (0 = report only)")

		crashloop  = flag.Int("crashloop", 0, "server-kill chaos cycles: spawn -served-bin with -state-dir, kill -9 it this many times mid-load (0 = off)")
		servedBin  = flag.String("served-bin", "", "hibserved binary for -crashloop")
		stateDir   = flag.String("state-dir", "", "state directory for the spawned server (-crashloop; empty = temp)")
		spawnAddr  = flag.String("spawn-addr", "127.0.0.1:18080", "listen address for the spawned server (-crashloop)")
		killEvery  = flag.Duration("kill-every", 400*time.Millisecond, "mean interval between kill -9 cycles (-crashloop)")
		quotaProbe = flag.Bool("quota-probe", false, "also probe the per-client quota path against an embedded quota-armed server")
	)
	flag.Parse()

	if *quotaProbe {
		probeQuotas(*seed, *simT)
		// Probe-only invocation: nothing else was asked for, done.
		if *crashloop == 0 && *addr == "" && !*self {
			return
		}
	}
	if *crashloop > 0 {
		runCrashloop(crashOpts{
			cycles:    *crashloop,
			servedBin: *servedBin,
			stateDir:  *stateDir,
			addr:      *spawnAddr,
			killEvery: *killEvery,
			clients:   *clients,
			jobs:      *jobs,
			distinct:  *distinct,
			seed:      *seed,
			simT:      *simT,
		})
		return
	}

	base := *addr
	if *self {
		srv := served.New(&served.Options{MaxJobs: *table, Backlog: *backlog, Workers: *workers})
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		base = ts.URL
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "hibload: need -addr or -self")
		os.Exit(2)
	}

	h := &harness{
		base:     base,
		client:   &http.Client{Timeout: 5 * time.Minute},
		maxAlive: *table,
	}

	// Distinct scenarios, with their direct-run references computed once.
	scenarios := make([]*scenario.Scenario, *distinct)
	bodies := make([][]byte, *distinct)
	refs := make([]reference, *distinct)
	for i := range scenarios {
		g := chaos.Generate(*seed, i)
		g.Duration = *simT
		if g.SnapshotT >= g.Duration {
			g.SnapshotT = 0
		}
		if err := g.Validate(); err != nil {
			fatalf("scenario %d invalid: %v", i, err)
		}
		scenarios[i] = &g
		var buf bytes.Buffer
		if err := scenario.WriteRepro(&buf, &g); err != nil {
			fatalf("scenario %d: %v", i, err)
		}
		bodies[i] = buf.Bytes()
		result, metrics, _, err := served.DirectRun(&g, false)
		if err != nil {
			fatalf("direct run %d: %v", i, err)
		}
		refs[i] = reference{result: bytes.TrimSuffix(result, []byte("\n")), metrics: metrics}
	}

	// The client fleet: each goroutine pulls job numbers and drives one
	// submission to completion, honoring 429 backpressure.
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range work {
				i := n % len(scenarios)
				h.driveJob(bodies[i], refs[i], *verify)
			}
		}()
	}
	start := time.Now()
	for n := 0; n < *jobs; n++ {
		work <- n
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	if *suspend {
		h.exerciseSuspend(*seed, *simT)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := ms.HeapAlloc >> 20
	fmt.Printf("jobs=%d complete=%d rejected429=%d stream-verified=%d mismatches=%d table-max=%d elapsed=%v heap=%dMB\n",
		*jobs, h.completed.Load(), h.rejected.Load(), h.streamsOK.Load(), h.mismatches.Load(), h.aliveMax.Load(), elapsed.Round(time.Millisecond), heapMB)

	switch {
	case h.completed.Load() != uint64(*jobs):
		fatalf("lost jobs: %d submitted, %d completed", *jobs, h.completed.Load())
	case h.mismatches.Load() != 0:
		fatalf("%d byte-identity mismatches", h.mismatches.Load())
	case h.aliveMax.Load() > int64(h.maxAlive):
		fatalf("job table exceeded its bound: %d > %d", h.aliveMax.Load(), h.maxAlive)
	case *memBudget > 0 && heapMB > *memBudget:
		fatalf("heap %dMB exceeds budget %dMB", heapMB, *memBudget)
	}
}

type reference struct {
	result  []byte // compact result JSON, no trailing newline
	metrics []byte // full metrics JSONL
}

type harness struct {
	base     string
	client   *http.Client
	maxAlive int

	completed  atomic.Uint64
	rejected   atomic.Uint64
	streamsOK  atomic.Uint64
	mismatches atomic.Uint64
	aliveMax   atomic.Int64
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hibload: "+format+"\n", args...)
	os.Exit(1)
}

// submit POSTs the scenario until the server admits it, counting and
// honoring every 429 (Retry-After capped so the harness stays brisk).
func (h *harness) submit(body []byte) string {
	for {
		resp, err := h.client.Post(h.base+"/jobs", "text/plain", bytes.NewReader(body))
		if err != nil {
			fatalf("submit: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var out map[string]string
			if err := json.Unmarshal(b, &out); err != nil || out["id"] == "" {
				fatalf("submit response %q: %v", b, err)
			}
			return out["id"]
		case http.StatusTooManyRequests:
			h.rejected.Add(1)
			wait := 50 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				if d := time.Duration(ra) * time.Second; d < wait {
					wait = d
				}
			}
			time.Sleep(wait)
		default:
			fatalf("submit: status %d: %s", resp.StatusCode, b)
		}
	}
}

func (h *harness) status(id string) servedStatus {
	resp, err := h.client.Get(h.base + "/jobs/" + id)
	if err != nil {
		fatalf("status %s: %v", id, err)
	}
	defer resp.Body.Close()
	var st servedStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fatalf("status %s: %v", id, err)
	}
	return st
}

// servedStatus mirrors served.JobStatus without importing its handler
// types into the wire-assert path (the JSON shape is the contract).
type servedStatus struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Events uint64          `json:"events"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// driveJob runs one submission to completion and verifies byte-identity.
func (h *harness) driveJob(body []byte, ref reference, verifyStream bool) {
	id := h.submit(body)
	h.observeTableBound()
	var streamed []byte
	if verifyStream {
		// Attach to the live stream; it drains to EOF at completion.
		resp, err := h.client.Get(h.base + "/jobs/" + id + "/stream")
		if err != nil {
			fatalf("stream %s: %v", id, err)
		}
		streamed, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fatalf("stream %s: %v", id, err)
		}
	}
	st := h.waitDone(id)
	if st.State != "complete" {
		fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	h.completed.Add(1)
	if !bytes.Equal(st.Result, ref.result) {
		h.mismatches.Add(1)
		fmt.Fprintf(os.Stderr, "hibload: job %s result diverges:\n  served %s\n  direct %s\n", id, st.Result, ref.result)
		return
	}
	if verifyStream {
		if !bytes.Equal(streamed, ref.metrics) {
			h.mismatches.Add(1)
			fmt.Fprintf(os.Stderr, "hibload: job %s stream diverges (%d vs %d bytes)\n", id, len(streamed), len(ref.metrics))
			return
		}
		h.streamsOK.Add(1)
	}
}

func (h *harness) waitDone(id string) servedStatus {
	for {
		st := h.status(id)
		switch st.State {
		case "complete", "failed", "canceled":
			return st
		case "flushed":
			// The server evicted the result before this client read it —
			// a served-result loss the harness exists to catch.
			fatalf("job %s flushed before its result was read", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// observeTableBound samples GET /jobs and records the largest live-job
// count seen; main asserts it never exceeded the configured bound.
func (h *harness) observeTableBound() {
	resp, err := h.client.Get(h.base + "/jobs")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []servedStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return
	}
	n := int64(len(list.Jobs))
	for {
		cur := h.aliveMax.Load()
		if n <= cur || h.aliveMax.CompareAndSwap(cur, n) {
			return
		}
	}
}

// exerciseSuspend runs one long job through suspend → resume and checks
// the resumed stream is an exact byte tail of the uninterrupted run's.
func (h *harness) exerciseSuspend(seed int64, simT float64) {
	g := chaos.Generate(seed, 0)
	g.Duration = simT * 2000 // long enough to reliably suspend mid-run
	if g.SnapshotT >= g.Duration {
		g.SnapshotT = 0
	}
	result, metrics, _, err := served.DirectRun(&g, false)
	if err != nil {
		fatalf("suspend exercise direct run: %v", err)
	}
	var buf bytes.Buffer
	if err := scenario.WriteRepro(&buf, &g); err != nil {
		fatalf("suspend exercise: %v", err)
	}
	id := h.submit(buf.Bytes())
	// Follow the live stream and suspend once a quarter of the
	// uninterrupted run's output has arrived — past the first periodic
	// snapshot (taken at 1/8 of the run), so resume restores a real
	// capture and the resumed stream is a strict tail.
	live, err := h.client.Get(h.base + "/jobs/" + id + "/stream")
	if err != nil {
		fatalf("live stream: %v", err)
	}
	got, rbuf := 0, make([]byte, 32<<10)
	for got < len(metrics)/4 {
		n, err := live.Body.Read(rbuf)
		got += n
		if err != nil {
			break
		}
	}
	live.Body.Close()
	if code := h.post(id, "suspend"); code == http.StatusConflict {
		fmt.Fprintln(os.Stderr, "hibload: job finished before suspend; skipping tail check")
		return
	} else if code != http.StatusOK {
		fatalf("suspend: status %d", code)
	}
	if code := h.post(id, "resume"); code != http.StatusOK {
		fatalf("resume: status %d", code)
	}
	resp, err := h.client.Get(h.base + "/jobs/" + id + "/stream")
	if err != nil {
		fatalf("resumed stream: %v", err)
	}
	tail, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fatalf("resumed stream: %v", err)
	}
	st := h.waitDone(id)
	if st.State != "complete" {
		fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	if !bytes.Equal(st.Result, bytes.TrimSuffix(result, []byte("\n"))) {
		fatalf("resumed result diverges from uninterrupted run")
	}
	if len(tail) == 0 || !bytes.HasSuffix(metrics, tail) {
		fatalf("resumed stream (%d bytes) is not a byte tail of the uninterrupted stream (%d bytes)", len(tail), len(metrics))
	}
	fmt.Printf("suspend/resume verified: %d-byte stream tail of %d\n", len(tail), len(metrics))
}

func (h *harness) post(id, verb string) int {
	resp, err := h.client.Post(h.base+"/jobs/"+id+"/"+verb, "", nil)
	if err != nil {
		fatalf("%s %s: %v", verb, id, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// probeQuotas embeds a quota-armed server and asserts the per-client
// fairness path end to end: a client at its inflight cap is refused
// with 429 + reason "quota" + Retry-After while another client is
// admitted, and the slot frees on terminal.
func probeQuotas(seed int64, simT float64) {
	srv := served.New(&served.Options{MaxClientInflight: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	long := chaos.Generate(seed, 0)
	long.Duration = simT * 2000 // occupies the slot for the whole probe
	if long.SnapshotT >= long.Duration {
		long.SnapshotT = 0
	}
	var buf bytes.Buffer
	if err := scenario.WriteRepro(&buf, &long); err != nil {
		fatalf("quota probe: %v", err)
	}
	post := func(client string) (*http.Response, map[string]string) {
		req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(buf.Bytes()))
		if err != nil {
			fatalf("quota probe: %v", err)
		}
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fatalf("quota probe: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp, out
	}

	resp, out := post("greedy")
	if resp.StatusCode != http.StatusAccepted {
		fatalf("quota probe: first submit: %d", resp.StatusCode)
	}
	id := out["id"]
	resp, out = post("greedy")
	if resp.StatusCode != http.StatusTooManyRequests || out["reason"] != "quota" || resp.Header.Get("Retry-After") == "" {
		fatalf("quota probe: over-cap submit: status %d reason %q Retry-After %q",
			resp.StatusCode, out["reason"], resp.Header.Get("Retry-After"))
	}
	if resp, _ = post("patient"); resp.StatusCode != http.StatusAccepted {
		fatalf("quota probe: other client refused: %d", resp.StatusCode)
	}
	h := &harness{base: ts.URL, client: http.DefaultClient}
	if code := h.post(id, "cancel"); code != http.StatusOK {
		fatalf("quota probe: cancel: %d", code)
	}
	resp, _ = post("greedy")
	if resp.StatusCode != http.StatusAccepted {
		fatalf("quota probe: slot not released on terminal: %d", resp.StatusCode)
	}
	fmt.Println("quota probe: 429/quota + Retry-After verified, slot released on terminal")
}
