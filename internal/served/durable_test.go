package served

// Crash-recovery tests: every one builds a durable server over a temp
// state directory, tears it down — either cleanly (Close) or as a
// simulated kill -9 (abort, which freezes the disk at that instant) —
// and asserts that a reopened server rebuilds exactly the table the
// log promises, with results byte-identical to a direct run.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hibernator/internal/journal"
	"hibernator/internal/scenario"
)

// openDurable builds a durable server plus its HTTP test harness.
func openDurable(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.StateDir = dir
	s, err := Open(&opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, httptest.NewServer(s.Handler())
}

// postKeyed submits with idempotency headers and returns (id, status).
func postKeyed(t *testing.T, ts *httptest.Server, body []byte, client, key string) (string, int) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client", client)
	req.Header.Set("X-Job-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	decodeBody(t, resp, &out)
	return out["id"], resp.StatusCode
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestDurableSurvivesCleanRestart(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(t, 3, 60)
	body := []byte(mustCanonical(t, sc))

	s1, ts1 := openDurable(t, dir, Options{})
	id, code := postKeyed(t, ts1, body, "alice", "k1")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := waitState(t, ts1, id, StateComplete)
	ts1.Close()
	s1.Close()

	s2, ts2 := openDurable(t, dir, Options{})
	defer ts2.Close()
	defer s2.Close()
	st2 := getStatus(t, ts2, id)
	if st2.State != StateComplete {
		t.Fatalf("after restart: state %s", st2.State)
	}
	if !bytes.Equal(st2.Result, st.Result) {
		t.Fatalf("result changed across restart:\n pre: %s\npost: %s", st.Result, st2.Result)
	}
	if got := s2.Stats(); got.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", got.Replayed)
	}
	// The idempotency key survives too: a blind re-POST dedupes.
	id2, code := postKeyed(t, ts2, body, "alice", "k1")
	if code != http.StatusOK || id2 != id {
		t.Fatalf("re-POST after restart: id=%s code=%d, want %s/200", id2, code, id)
	}
	if got := s2.Stats(); got.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", got.Deduped)
	}
}

func TestCrashRecoveryRerunsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(t, 7, 600)
	wantResult, _, _, err := DirectRun(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(mustCanonical(t, sc))

	s1, ts1 := openDurable(t, dir, Options{})
	id, code := postKeyed(t, ts1, body, "bob", "crash-1")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Kill the server without letting any terminal edge reach disk; the
	// job is accepted (durably, before the 202) or running at this point.
	ts1.Close()
	s1.abort()

	s2, ts2 := openDurable(t, dir, Options{})
	defer ts2.Close()
	defer s2.Close()
	st := waitState(t, ts2, id, StateComplete)
	if !bytes.Equal(st.Result, bytes.TrimSuffix(wantResult, []byte("\n"))) {
		t.Fatalf("recovered result differs from direct run:\n got: %s\nwant: %s", st.Result, wantResult)
	}
	got := s2.Stats()
	if got.Replayed != 1 || got.Resumed+got.Restarted != 1 {
		t.Fatalf("stats after crash recovery: %+v", got)
	}
	// Recovery drained: the server reports ready and accepts new work.
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: %d", resp.StatusCode)
	}
}

func TestCrashRecoveryResumesFromPersistedSnapshot(t *testing.T) {
	dir := t.TempDir()
	// The long scenario the suspend/resume tests use: slow enough in real
	// time that periodic snapshots land well before completion.
	sc := testScenario(t, 7, 600)
	wantResult, wantMetrics, _, err := DirectRun(sc, false)
	if err != nil {
		t.Fatal(err)
	}

	s1, ts1 := openDurable(t, dir, Options{SnapshotFrac: 64})
	id, _ := postKeyed(t, ts1, []byte(mustCanonical(t, sc)), "carol", "snap-1")
	// Wait for a persisted snapshot, then crash mid-run.
	snapPath := filepath.Join(dir, "snaps", id+".snap")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if st := getStatus(t, ts1, id); terminalState(st.State) {
			t.Skipf("job finished before a snapshot persisted: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot persisted for %s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ts1.Close()
	s1.abort()

	s2, ts2 := openDurable(t, dir, Options{SnapshotFrac: 64})
	defer ts2.Close()
	defer s2.Close()
	stream := getBody(t, ts2, "/jobs/"+id+"/stream")
	st := waitState(t, ts2, id, StateComplete)
	if got := s2.Stats(); got.Resumed != 1 {
		t.Fatalf("stats: %+v, want Resumed=1", got)
	}
	if !bytes.Equal(st.Result, bytes.TrimSuffix(wantResult, []byte("\n"))) {
		t.Fatalf("resumed result differs from direct run:\n got: %s\nwant: %s", st.Result, wantResult)
	}
	// The resumed stream is an exact byte tail of the uninterrupted run.
	if len(stream) == 0 || !bytes.HasSuffix(wantMetrics, stream) {
		t.Fatalf("resumed stream (%d bytes) is not a tail of the direct metrics (%d bytes)", len(stream), len(wantMetrics))
	}
	if len(stream) >= len(wantMetrics) {
		t.Fatalf("resumed stream replayed the whole run (%d >= %d bytes): snapshot not used", len(stream), len(wantMetrics))
	}
}

// A resume refused by a full backlog rolls back to suspended; the WAL
// it leaves behind must still replay (regression: the rollback edge
// made every subsequent Open of the state dir fail).
func TestResumeRollbackKeepsWALReplayable(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := openDurable(t, dir, Options{Workers: 1, Backlog: 1, MaxJobs: 16})
	long := testScenario(t, 7, 100000) // minutes of real time; never finishes here

	id := postJob(t, ts1, long)
	waitState(t, ts1, id, StateRunning)
	resp, err := http.Post(ts1.URL+"/jobs/"+id+"/suspend", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suspend: status %d", resp.StatusCode)
	}
	// Suspending freed the worker; refill it and the one-slot backlog so
	// the resume below finds no room.
	id2 := postJob(t, ts1, long)
	waitState(t, ts1, id2, StateRunning)
	postJob(t, ts1, long) // parks in the backlog

	resp, err = http.Post(ts1.URL+"/jobs/"+id+"/resume", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("resume with full backlog: status %d, want 429", resp.StatusCode)
	}
	if st := getStatus(t, ts1, id); st.State != StateSuspended {
		t.Fatalf("after refused resume: state %s, want suspended", st.State)
	}
	ts1.Close()
	s1.abort() // freeze the log exactly as the rollback left it

	s2, ts2 := openDurable(t, dir, Options{Workers: 1, Backlog: 1, MaxJobs: 16})
	defer ts2.Close()
	defer s2.Close()
	if st := getStatus(t, ts2, id); st.State != StateSuspended {
		t.Fatalf("after restart: state %s, want suspended", st.State)
	}
}

func TestRecoveryShedsSubmissionsUntilDrained(t *testing.T) {
	// The shed window is inherently transient on a live server, so this
	// pins the logic at the admission layer: a server with a non-empty
	// replay backlog refuses with 503/recovering and flips to accepting
	// the moment the backlog drains.
	s := New(&Options{MaxJobs: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sc := testScenario(t, 3, 60)

	s.pending.Store(1) // simulate one not-yet-started recovered job
	if _, _, err := s.SubmitKeyed(sc, "dave", ""); !IsRecovering(err) {
		t.Fatalf("submit during recovery: %v, want errRecovering", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during recovery: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("readyz 503 without Retry-After")
	}

	s.pending.Store(0)
	if _, _, err := s.SubmitKeyed(sc, "dave", ""); err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if got := s.Stats(); got.Shed != 1 {
		t.Fatalf("shed = %d, want 1", got.Shed)
	}
	// healthz is liveness, not readiness: 200 throughout.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp2.StatusCode)
	}
}

func TestWALMetaGuardRefusesChangedFlags(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(&Options{StateDir: dir, Check: false})
	s1.Close()
	if _, err := Open(&Options{StateDir: dir, Check: true}); err == nil {
		t.Fatal("reopening with changed -check must be refused")
	}
	// Original flags still work.
	s2, err := Open(&Options{StateDir: dir, Check: false})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

func TestWALTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(t, 3, 60)
	s1, ts1 := openDurable(t, dir, Options{})
	id, _ := postKeyed(t, ts1, []byte(mustCanonical(t, sc)), "", "")
	waitState(t, ts1, id, StateComplete)
	ts1.Close()
	s1.Close()

	// Simulate a kill -9 mid-append: a partial line with no newline.
	path := filepath.Join(dir, "jobs.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"run":"j9","status":"acce`)
	f.Close()

	s2, ts2 := openDurable(t, dir, Options{})
	defer ts2.Close()
	defer s2.Close()
	if st := getStatus(t, ts2, id); st.State != StateComplete {
		t.Fatalf("job lost to torn tail: %+v", st)
	}
	if resp, err := http.Get(ts2.URL + "/jobs/j9"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("torn-tail job resurfaced: %d", resp.StatusCode)
		}
	}
}

func TestRestartNeverReissuesJobIDs(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(t, 3, 60)
	s1, ts1 := openDurable(t, dir, Options{})
	id1, _ := postKeyed(t, ts1, []byte(mustCanonical(t, sc)), "", "")
	waitState(t, ts1, id1, StateComplete)
	ts1.Close()
	s1.Close()

	s2, ts2 := openDurable(t, dir, Options{})
	defer ts2.Close()
	defer s2.Close()
	id2, code := postKeyed(t, ts2, []byte(mustCanonical(t, sc)), "", "")
	if code != http.StatusAccepted {
		t.Fatalf("submit after restart: %d", code)
	}
	if id2 == id1 {
		t.Fatalf("job ID %s reissued after restart", id2)
	}
}

func TestNonDurableServerWritesNothing(t *testing.T) {
	// Durability is strictly opt-in: without StateDir the server must
	// not touch the filesystem. Run a full job lifecycle in a sandbox
	// cwd-independent way and verify the temp dir stays empty.
	dir := t.TempDir()
	s := New(&Options{})
	ts := httptest.NewServer(s.Handler())
	id := postJob(t, ts, testScenario(t, 3, 60))
	waitState(t, ts, id, StateComplete)
	ts.Close()
	s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("non-durable server created files: %v", entries)
	}
}

// TestWALEdgeLegality exercises applyWALEntry's state machine directly:
// semantically corrupt logs fail loudly, rejected admissions vanish,
// flushed jobs never take another edge.
func TestWALEdgeLegality(t *testing.T) {
	run := func(entries []journal.Entry) (map[string]*walRecord, error) {
		records := map[string]*walRecord{}
		var order []string
		for _, e := range entries {
			if err := applyWALEntry(records, &order, e); err != nil {
				return records, err
			}
		}
		return records, nil
	}
	sha := "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"

	if _, err := run([]journal.Entry{{Run: "j1", Status: StateRunning, Attempt: 1}}); err == nil {
		t.Fatal("running before accepted must error")
	}
	if _, err := run([]journal.Entry{{Run: "j1", Status: StateAccepted}}); err == nil {
		t.Fatal("accepted without a sha must error")
	}
	recs, err := run([]journal.Entry{
		{Run: "j1", Status: StateAccepted, SHA256: sha},
		{Run: "j1", Status: walRejected},
	})
	if err != nil || len(recs) != 0 {
		t.Fatalf("rejected admission must vanish: %v %v", recs, err)
	}
	_, err = run([]journal.Entry{
		{Run: "j1", Status: StateAccepted, SHA256: sha},
		{Run: "j1", Status: StateRunning, Attempt: 1},
		{Run: "j1", Status: StateComplete, Detail: `{"x":1}`},
		{Run: "j1", Status: StateFlushed},
		{Run: "j1", Status: StateRunning, Attempt: 2},
	})
	if err == nil {
		t.Fatal("an edge after flush must error")
	}
	recs, err = run([]journal.Entry{
		{Run: "j1", Status: StateAccepted, SHA256: sha},
		{Run: "j1", Status: StateRunning, Attempt: 1},
		{Run: "j1", Status: StateSuspended, SHA256: "beef"},
		{Run: "j1", Status: StateAccepted},
		{Run: "j1", Status: StateRunning, Attempt: 2},
		{Run: "j1", Status: StateComplete, Detail: `{"x":1}`},
		{Run: "j1", Status: walDelivered},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := recs["j1"]; r.state != StateComplete || !r.delivered || r.result != `{"x":1}` {
		t.Fatalf("suspend/resume lifecycle replayed wrong: %+v", recs["j1"])
	}

	// Resume rollback: a resume refused by a full backlog re-writes a
	// suspended edge from the accepted state. Replay must take it
	// (regression: it used to refuse, making the log unrecoverable) and
	// keep the original snapshot hash when the rollback states none.
	recs, err = run([]journal.Entry{
		{Run: "j1", Status: StateAccepted, SHA256: sha},
		{Run: "j1", Status: StateRunning, Attempt: 1},
		{Run: "j1", Status: StateSuspended, SHA256: "beef"},
		{Run: "j1", Status: StateAccepted},
		{Run: "j1", Status: StateSuspended, Detail: "resume refused: backlog full"},
	})
	if err != nil {
		t.Fatalf("resume rollback must replay: %v", err)
	}
	if r := recs["j1"]; r.state != StateSuspended || r.snapHash != "beef" {
		t.Fatalf("resume rollback replayed wrong: %+v", recs["j1"])
	}
	// A rollback that does state a hash wins over the original.
	recs, err = run([]journal.Entry{
		{Run: "j1", Status: StateAccepted, SHA256: sha},
		{Run: "j1", Status: StateRunning, Attempt: 1},
		{Run: "j1", Status: StateSuspended, SHA256: "beef"},
		{Run: "j1", Status: StateAccepted},
		{Run: "j1", Status: StateSuspended, SHA256: "cafe", Detail: "resume refused: backlog full"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := recs["j1"]; r.snapHash != "cafe" {
		t.Fatalf("rollback hash not honored: %+v", recs["j1"])
	}
}

// State dirs written while repros carried an engine width hold artifacts
// with a "workers N" line. Recovery must still parse them, and the job
// must complete with the result a direct run gives.
func TestRecoveryAcceptsArtifactWithWorkersLine(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(t, 3, 60)
	wantResult, _, _, err := DirectRun(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(mustCanonical(t, sc), "snapshot-t ", "workers 1\nsnapshot-t ", 1)
	if !strings.Contains(old, "workers 1\n") {
		t.Fatal("canonical repro has no snapshot-t line to anchor the workers line")
	}

	s1, err := Open(&Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sha, err := s1.wal.saveArtifact([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.wal.appendAccepted("j1", sha, "", ""); err != nil {
		t.Fatal(err)
	}
	s1.abort()

	s2, ts2 := openDurable(t, dir, Options{})
	defer ts2.Close()
	defer s2.Close()
	st := waitState(t, ts2, "j1", StateComplete)
	if !bytes.Equal(st.Result, bytes.TrimSuffix(wantResult, []byte("\n"))) {
		t.Fatalf("recovered result differs from direct run:\n got: %s\nwant: %s", st.Result, wantResult)
	}
	if got := s2.Stats(); got.Replayed != 1 {
		t.Fatalf("stats after recovery: %+v", got)
	}
}

func mustCanonical(t *testing.T, sc *scenario.Scenario) string {
	t.Helper()
	c, err := canonicalRepro(sc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
