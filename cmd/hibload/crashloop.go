package main

// The server-kill chaos harness: spawn a real hibserved process with a
// durable -state-dir, drive acceptance from a client fleet, and kill -9
// the server repeatedly while they work. The durability contract under
// test is exactly the write-ahead log's ordering argument:
//
//   - nothing lost: every job a client holds an ID for (the 202/200
//     response landed) is found again after every restart — never 404 —
//     and every submitted job eventually completes;
//   - nothing duplicated: submissions carry idempotency keys, so a
//     client whose POST raced the kill re-sends blindly and must get
//     the same job back, never a second admission;
//   - nothing corrupted: every completed job's result is byte-identical
//     to a direct in-process run, and every readable stream is a byte
//     suffix of the direct metrics (empty for jobs that completed in an
//     earlier server life — streams are not persisted, results are);
//   - the log replays: each restart is itself the assertion that the
//     WAL, truncated wherever the kill landed, reopens cleanly.
//
// Kill points are derived from chaos.Mix, so a whole chaos run is a
// pure function of -seed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hibernator/internal/chaos"
	"hibernator/internal/scenario"
	"hibernator/internal/served"
)

// crashOpts carries the -crashloop configuration from main.
type crashOpts struct {
	cycles    int           // kill -9 → restart cycles
	servedBin string        // hibserved binary to spawn
	stateDir  string        // durable state directory ("" = temp)
	addr      string        // host:port the spawned server listens on
	killEvery time.Duration // mean interval between kills
	clients   int
	jobs      int
	distinct  int
	seed      int64
	simT      float64
}

// crashServer owns the spawned hibserved process.
type crashServer struct {
	opts   crashOpts
	mu     sync.Mutex
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd has been reaped
}

func (cs *crashServer) start() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cmd := exec.Command(cs.opts.servedBin,
		"-addr", cs.opts.addr,
		"-state-dir", cs.opts.stateDir,
		"-max-jobs", strconv.Itoa(cs.opts.jobs*2+16), // never flush an unread result
		"-retry-after", "1s",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("crashloop: start %s: %v", cs.opts.servedBin, err)
	}
	cs.cmd = cmd
	exited := make(chan struct{})
	cs.exited = exited
	go func() {
		cmd.Wait() // reap; kill -9 exits are expected
		close(exited)
	}()
}

// kill delivers SIGKILL — the crash under test, never a graceful stop —
// and waits until the process is gone, so the next start never finds
// the dead server still holding the listen address.
func (cs *crashServer) kill() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.cmd != nil && cs.cmd.Process != nil {
		_ = cs.cmd.Process.Kill()
		<-cs.exited
	}
}

// awaitHealthy polls /healthz until the spawned process serves HTTP.
func (cs *crashServer) awaitHealthy(client *http.Client) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + cs.opts.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	fatalf("crashloop: server at %s never became healthy", cs.opts.addr)
}

// runCrashloop is the -crashloop entry point. It exits the process with
// status 0 only if every durability assertion held.
func runCrashloop(o crashOpts) {
	if o.servedBin == "" {
		fatalf("crashloop: -served-bin is required")
	}
	if o.stateDir == "" {
		dir, err := os.MkdirTemp("", "hibload-crash-*")
		if err != nil {
			fatalf("crashloop: %v", err)
		}
		defer os.RemoveAll(dir)
		o.stateDir = dir
	}

	// Direct-run references, computed once per distinct scenario.
	bodies := make([][]byte, o.distinct)
	refs := make([]reference, o.distinct)
	for i := range bodies {
		g := chaos.Generate(o.seed, i)
		g.Duration = o.simT
		if g.SnapshotT >= g.Duration {
			g.SnapshotT = 0
		}
		if err := g.Validate(); err != nil {
			fatalf("crashloop: scenario %d invalid: %v", i, err)
		}
		var buf bytes.Buffer
		if err := scenario.WriteRepro(&buf, &g); err != nil {
			fatalf("crashloop: scenario %d: %v", i, err)
		}
		bodies[i] = buf.Bytes()
		result, metrics, _, err := served.DirectRun(&g, false)
		if err != nil {
			fatalf("crashloop: direct run %d: %v", i, err)
		}
		refs[i] = reference{result: bytes.TrimSuffix(result, []byte("\n")), metrics: metrics}
	}

	cs := &crashServer{opts: o}
	client := &http.Client{Timeout: 30 * time.Second}
	cs.start()
	cs.awaitHealthy(client)

	h := &crashHarness{base: "http://" + o.addr, client: client}

	// The client fleet: every job has a deterministic idempotency key,
	// submitted blindly until an admission lands, then polled to a
	// terminal state — across however many server lives that takes.
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		cid := fmt.Sprintf("c%d", c)
		go func() {
			defer wg.Done()
			for n := range work {
				i := n % len(bodies)
				h.driveJob(cid, fmt.Sprintf("job-%d", n), bodies[i], refs[i])
			}
		}()
	}
	feed := make(chan struct{})
	go func() {
		defer close(feed)
		for n := 0; n < o.jobs; n++ {
			work <- n
		}
		close(work)
	}()

	// The kill loop: exactly o.cycles kill -9 → restart rounds while the
	// fleet works, at chaos.Mix-derived intervals so the run replays
	// from its seed. Remaining cycles after the fleet finishes still run
	// — recovery with an idle table must hold too.
	start := time.Now()
	for cycle := 0; cycle < o.cycles; cycle++ {
		jitter := time.Duration(chaos.Mix(o.seed, int64(cycle))%int64(o.killEvery)) + o.killEvery/2
		select {
		case <-time.After(jitter):
		case <-feed:
			// Queue drained; let in-flight jobs see at least one more kill.
			time.Sleep(jitter / 4)
		}
		cs.kill()
		cs.start()
		cs.awaitHealthy(client)
		fmt.Fprintf(os.Stderr, "hibload: crash cycle %d/%d (after %v)\n", cycle+1, o.cycles, jitter.Round(time.Millisecond))
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats := h.serverStats()
	fmt.Printf("crashloop cycles=%d jobs=%d completed=%d deduped=%d shed=%d retried-submits=%d streams-suffix-ok=%d empty-streams=%d elapsed=%v\n",
		o.cycles, o.jobs, h.completed.Load(), h.deduped.Load(), stats.Shed, h.retries.Load(), h.streamsOK.Load(), h.emptyStreams.Load(), elapsed.Round(time.Millisecond))

	switch {
	case h.completed.Load() != uint64(o.jobs):
		fatalf("crashloop: lost jobs: %d submitted, %d completed", o.jobs, h.completed.Load())
	case h.mismatches.Load() != 0:
		fatalf("crashloop: %d byte-identity mismatches", h.mismatches.Load())
	case h.duplicates.Load() != 0:
		fatalf("crashloop: %d duplicated admissions", h.duplicates.Load())
	}
	cs.kill()
}

// crashHarness drives jobs against the spawned server, tolerant of the
// connection errors every kill produces.
type crashHarness struct {
	base   string
	client *http.Client

	mu   sync.Mutex
	keys map[string]string // job key → admitted id (duplication oracle)

	completed    atomic.Uint64
	deduped      atomic.Uint64
	retries      atomic.Uint64
	duplicates   atomic.Uint64
	mismatches   atomic.Uint64
	streamsOK    atomic.Uint64
	emptyStreams atomic.Uint64
}

// submitKeyed POSTs with idempotency headers until an admission lands,
// retrying connection errors (server mid-crash), 429s, and 503s (server
// mid-recovery). A key that resolves to two different IDs across
// retries is a duplicated admission — the bug this harness exists for.
func (h *crashHarness) submitKeyed(client, key string, body []byte) string {
	for {
		req, err := http.NewRequest("POST", h.base+"/jobs", bytes.NewReader(body))
		if err != nil {
			fatalf("crashloop: %v", err)
		}
		req.Header.Set("X-Client", client)
		req.Header.Set("X-Job-Key", key)
		resp, err := h.client.Do(req)
		if err != nil {
			h.retries.Add(1) // connection refused/reset: server is down
			time.Sleep(20 * time.Millisecond)
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var out map[string]string
			if err := json.Unmarshal(b, &out); err != nil || out["id"] == "" {
				fatalf("crashloop: submit response %q: %v", b, err)
			}
			if resp.StatusCode == http.StatusOK {
				h.deduped.Add(1)
			}
			h.recordKey(key, out["id"])
			return out["id"]
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			h.retries.Add(1)
			time.Sleep(25 * time.Millisecond)
		default:
			fatalf("crashloop: submit %s: status %d: %s", key, resp.StatusCode, b)
		}
	}
}

// recordKey asserts a key never maps to two different job IDs.
func (h *crashHarness) recordKey(key, id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.keys == nil {
		h.keys = map[string]string{}
	}
	if prior, ok := h.keys[key]; ok && prior != id {
		h.duplicates.Add(1)
		fmt.Fprintf(os.Stderr, "hibload: key %s admitted twice: %s then %s\n", key, prior, id)
		return
	}
	h.keys[key] = id
}

// driveJob submits one keyed job — re-POSTing blindly across crashes —
// and polls it to completion, then verifies byte-identity.
func (h *crashHarness) driveJob(client, key string, body []byte, ref reference) {
	id := h.submitKeyed(client, key, body)
	st := h.waitDone(key, id)
	if st.State != "complete" {
		fatalf("crashloop: job %s (%s) ended %s: %s", id, key, st.State, st.Error)
	}
	if !bytes.Equal(st.Result, ref.result) {
		h.mismatches.Add(1)
		fmt.Fprintf(os.Stderr, "hibload: job %s result diverges:\n  served %s\n  direct %s\n", id, st.Result, ref.result)
		return
	}
	h.completed.Add(1)
	// The stream after completion: byte suffix of the direct metrics.
	// Empty is legal — a job that completed in a previous server life
	// has its result in the WAL but its stream bytes died with the
	// process. Anything else non-suffix is corruption.
	stream, ok := h.getRetry("/jobs/" + id + "/stream")
	if !ok {
		return // flushed/404 race is impossible (table sized over jobs); kill race: skip
	}
	if len(stream) == 0 {
		h.emptyStreams.Add(1)
		return
	}
	if !bytes.HasSuffix(ref.metrics, stream) {
		h.mismatches.Add(1)
		fmt.Fprintf(os.Stderr, "hibload: job %s stream (%d bytes) is not a suffix of the direct metrics (%d bytes)\n", id, len(stream), len(ref.metrics))
		return
	}
	h.streamsOK.Add(1)
}

// waitDone polls the job's status to a terminal state. Per the WAL
// ordering argument an ID a client holds was durable before the 202,
// so a 404 after any number of restarts is real loss — fatal, never
// retried away.
func (h *crashHarness) waitDone(key, id string) servedStatus {
	for {
		resp, err := h.client.Get(h.base + "/jobs/" + id)
		if err != nil {
			time.Sleep(20 * time.Millisecond) // server mid-crash
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var st servedStatus
			if err := json.Unmarshal(b, &st); err != nil {
				fatalf("crashloop: status %s: %v (%q)", id, err, b)
			}
			switch st.State {
			case "complete":
				return st
			case "failed", "canceled":
				return st
			case "suspended":
				fatalf("crashloop: job %s suspended without a suspender", id)
			}
		case http.StatusNotFound:
			fatalf("crashloop: job %s (%s) lost: 404 for an ID the client holds", id, key)
		case http.StatusGone:
			fatalf("crashloop: job %s (%s) flushed before its result was read", id, key)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// getRetry GETs a path, retrying through server downtime; false on 404/410.
func (h *crashHarness) getRetry(path string) ([]byte, bool) {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		resp, err := h.client.Get(h.base + path)
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && rerr == nil {
			return b, true
		}
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone {
			return nil, false
		}
		if rerr != nil { // stream torn by a kill mid-read: try again
			time.Sleep(20 * time.Millisecond)
			continue
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, false
}

// serverStats fetches the server's admission counters (best-effort).
func (h *crashHarness) serverStats() served.Stats {
	var list struct {
		Stats served.Stats `json:"stats"`
	}
	b, ok := h.getRetry("/jobs")
	if ok {
		_ = json.Unmarshal(b, &list)
	}
	return list.Stats
}
