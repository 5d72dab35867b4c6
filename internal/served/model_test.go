package served

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hibernator/internal/journal"
	"hibernator/internal/scenario"
)

// TestLifecycleModel runs random operation sequences against a durable
// one-worker server and against model, a reference lifecycle small
// enough to check by eye. After every operation the server must settle
// into the model's table. Then every line-prefix of the log it wrote,
// and one torn cut inside each line, must replay to the live table
// recorded when that line was appended.
func TestLifecycleModel(t *testing.T) {
	tiny := testScenario(t, 3, 60)
	bad := *tiny
	bad.BugEnergySkew, bad.BugSkewAt = 12345, 30 // fails the invariant check
	long := testScenario(t, 7, 100000)           // runs until stopped
	okRes, _, _, err := DirectRun(tiny, true)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, badErr := DirectRun(&bad, true)
	if badErr == nil {
		t.Fatal("bug-armed scenario passed the invariant check")
	}
	kinds := map[string]*scenario.Scenario{"tiny": tiny, "bad": &bad, "long": long}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			m := &model{jobs: map[string]*mjob{}, keys: map[string]string{}, maxJobs: 4, backlog: 2,
				okRes: strings.TrimSuffix(string(okRes), "\n"), badErr: badErr.Error()}
			runModel(t, rand.New(rand.NewSource(seed)), m, kinds)
		})
	}
}

func runModel(t *testing.T, rng *rand.Rand, m *model, kinds map[string]*scenario.Scenario) {
	dir := t.TempDir()
	opts := Options{StateDir: dir, Workers: 1, Backlog: m.backlog, MaxJobs: m.maxJobs, Check: true}
	s, err := Open(&opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := &recorder{maxJobs: m.maxJobs, cur: emptyTable()}
	s.wal.observe = rec.observe

	pick := func() (*job, string) {
		if m.seq == 0 {
			return nil, ""
		}
		id := fmt.Sprintf("j%d", 1+rng.Intn(m.seq)) // flushed and forgotten IDs too
		if rng.Intn(4) > 0 && len(m.order) > 0 {
			id = m.order[rng.Intn(len(m.order))]
		}
		j, _ := s.lookup(id)
		return j, id
	}
	for step := 0; step < 150; step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 7:
			kind := []string{"tiny", "tiny", "bad", "long", "long"}[rng.Intn(5)]
			client, key := "", ""
			if rng.Intn(2) == 0 {
				client, key = "c", fmt.Sprintf("k%d", rng.Intn(4))
			}
			op = fmt.Sprintf("submit %s key=%q", kind, key)
			wantID, wantExisting, wantBusy := m.submit(kind, client, key)
			id, existing, err := s.SubmitKeyed(kinds[kind], client, key)
			if IsBusy(err) != wantBusy || (err != nil && !IsBusy(err)) || id != wantID || existing != wantExisting {
				t.Fatalf("step %d %s: got (%q, %t, %v), model (%q, %t, busy=%t)", step, op, id, existing, err, wantID, wantExisting, wantBusy)
			}
		case r < 11:
			j, id := pick()
			op = "status " + id
			want := m.read(id)
			got := ""
			if j != nil {
				got = j.status().State
			} else if _, flushed := s.lookup(id); flushed {
				got = StateFlushed
			}
			if got != want {
				t.Fatalf("step %d %s: state %q, model %q", step, op, got, want)
			}
		case r < 13:
			j, id := pick()
			if j == nil {
				continue
			}
			op = "suspend " + id
			done, _ := j.requestSuspend()
			if done != nil {
				<-done
			}
			if (done != nil) != m.suspend(id) {
				t.Fatalf("step %d %s: suspended=%t, model disagrees", step, op, done != nil)
			}
		case r < 17:
			j, id := pick()
			if j == nil {
				continue
			}
			verb := []string{"resume", "retry"}[rng.Intn(2)]
			op = verb + " " + id
			var err error
			if verb == "resume" {
				err = s.resume(j)
			} else {
				err = s.retryJob(j)
			}
			want := m.readmit(id, verb)
			if got := map[bool]string{true: "busy", false: fmt.Sprint(err == nil)}[IsBusy(err)]; got != want {
				t.Fatalf("step %d %s: %v, model %s", step, op, err, want)
			}
		default:
			j, id := pick()
			if j == nil {
				continue
			}
			op = "cancel " + id
			j.requestCancel()
			j.waitIdle()
			m.cancel(id)
		}
		m.settle()
		live := waitSettled(t, s, m, step, op)
		if cur := rec.current(); !cur.equal(live) {
			t.Fatalf("step %d %s: logged edges fold to\n%+v\nbut the live table is\n%+v", step, op, cur, live)
		}
	}
	s.Close()
	checkReplayPrefixes(t, dir, opts, rec.tables)
}

// waitSettled polls the live table until its states match the model's,
// then checks every field the model predicts.
func waitSettled(t *testing.T, s *Server, m *model, step int, op string) tableView {
	t.Helper()
	want := m.table()
	deadline := time.Now().Add(20 * time.Second)
	for {
		live := liveTable(s)
		same := len(live.Jobs) == len(want.Jobs)
		for id, v := range want.Jobs {
			same = same && live.Jobs[id].State == v.State
		}
		if same {
			for id, v := range live.Jobs {
				v.SnapHash = "" // when a suspend lands is timing; replay checks the hash
				if v != want.Jobs[id] {
					t.Fatalf("step %d %s: job %s is %+v, model %+v", step, op, id, v, want.Jobs[id])
				}
			}
			live.Jobs = want.Jobs
			if !live.equal(want) {
				t.Fatalf("step %d %s: table %+v, model %+v", step, op, live, want)
			}
			return liveTable(s)
		}
		if time.Now().After(deadline) {
			t.Fatalf("step %d %s: server never settled:\n live %+v\nmodel %+v", step, op, live, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkReplayPrefixes replays every line-prefix of the log in dir, and
// every prefix followed by a torn half of the next line, and compares
// each rebuilt table with the live table recorded after that line.
func checkReplayPrefixes(t *testing.T, dir string, opts Options, tables []tableView) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	if len(lines)-1 != len(tables) {
		t.Fatalf("log has %d entries, observer saw %d", len(lines)-1, len(tables))
	}
	scratch := t.TempDir()
	copyDir(t, filepath.Join(dir, "jobs.jsonl.d"), filepath.Join(scratch, "jobs.jsonl.d"))
	for i := 1; i <= len(lines); i++ {
		prefix := bytes.Join(lines[:i], nil)
		want := emptyTable()
		if i > 1 {
			want = tables[i-2]
		}
		if got := replayTable(t, scratch, prefix, opts); !got.equal(want) {
			t.Fatalf("replay of %d lines:\n got %+v\nwant %+v", i, got, want)
		}
		if i < len(lines) {
			torn := append(prefix, lines[i][:len(lines[i])/2]...)
			if got := replayTable(t, scratch, torn, opts); !got.equal(want) {
				t.Fatalf("replay of %d lines and a torn one:\n got %+v\nwant %+v", i, got, want)
			}
		}
	}
}

// replayTable writes log as the job log under dir and rebuilds the table
// a restarted server would hold, read before recovery re-enqueues
// anything.
func replayTable(t *testing.T, dir string, log []byte, opts Options) tableView {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.StateDir = dir
	w, order, flushed, err := openWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	v := emptyTable()
	for _, j := range order {
		if j.state != stateNew && j.state != StateFlushed {
			v.Jobs[j.id] = viewOf(j)
		}
	}
	w.freeze()
	s := &Server{opts: opts.withDefaults(), wal: w, jobs: map[string]*job{}, flushed: map[string]string{}, keys: map[string]string{}}
	s.recover(order, flushed)
	v.Tombstones, v.Keys, v.NextID = slices.Clone(s.flushQ), s.keys, fmt.Sprintf("j%d", s.seq+1)
	return v
}

func emptyTable() tableView {
	return tableView{Jobs: map[string]jobView{}, Keys: map[string]string{}, NextID: "j1"}
}

// recorder folds every appended entry, with the job as apply left it,
// into the live table as of that line.
type recorder struct {
	mu      sync.Mutex
	maxJobs int
	cur     tableView
	tables  []tableView // tables[i]: the table after the log's (i+1)th entry
}

func (r *recorder) observe(e journal.Entry, j *job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := tableView{Jobs: maps.Clone(r.cur.Jobs), Tombstones: slices.Clone(r.cur.Tombstones), Keys: maps.Clone(r.cur.Keys), NextID: r.cur.NextID}
	if e.Status == StateFlushed {
		delete(c.Jobs, j.id)
		c.Tombstones = append(c.Tombstones, j.id)
		if len(c.Tombstones) > r.maxJobs {
			drop := c.Tombstones[0]
			c.Tombstones = c.Tombstones[1:]
			maps.DeleteFunc(c.Keys, func(_, id string) bool { return id == drop })
		}
	} else {
		if _, ok := c.Jobs[j.id]; !ok {
			if ck := clientKey(j.client, j.key); ck != "" {
				c.Keys[ck] = j.id
			}
			n, _ := strconv.Atoi(strings.TrimPrefix(j.id, "j"))
			c.NextID = fmt.Sprintf("j%d", n+1)
		}
		c.Jobs[j.id] = viewOf(j)
	}
	r.cur = c
	r.tables = append(r.tables, c)
}

func (r *recorder) current() tableView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// model is the reference lifecycle: a one-worker FIFO queue with a
// bounded backlog, a bounded table that flushes the oldest terminal job
// (delivered ones first), and jobs of three kinds — tiny ones complete,
// bad ones fail, long ones run until suspended or canceled.
type model struct {
	jobs    map[string]*mjob
	order   []string // live jobs in admission order
	tomb    []string
	keys    map[string]string
	queue   []string // backlog entries, canceled ones included
	running string   // the long job on the worker
	seq     int
	maxJobs int
	backlog int
	okRes   string
	badErr  string
}

type mjob struct {
	kind string
	v    jobView
}

func (m *model) table() tableView {
	v := tableView{Jobs: map[string]jobView{}, Tombstones: slices.Clone(m.tomb), Keys: maps.Clone(m.keys), NextID: fmt.Sprintf("j%d", m.seq+1)}
	for id, j := range m.jobs {
		v.Jobs[id] = j.v
	}
	return v
}

func (m *model) submit(kind, client, key string) (id string, existing, busy bool) {
	ck := clientKey(client, key)
	if id, ok := m.keys[ck]; ok && ck != "" {
		return id, true, false
	}
	if len(m.jobs) >= m.maxJobs && !m.flushOldest() || len(m.queue) >= m.backlog {
		return "", false, true
	}
	m.seq++
	id = fmt.Sprintf("j%d", m.seq)
	m.jobs[id] = &mjob{kind: kind, v: jobView{State: StateAccepted, Client: client, Key: key}}
	m.order = append(m.order, id)
	if ck != "" {
		m.keys[ck] = id
	}
	m.queue = append(m.queue, id)
	return id, false, false
}

func (m *model) flushOldest() bool {
	for _, needDelivered := range []bool{true, false} {
		for i, id := range m.order {
			if v := m.jobs[id].v; terminalState(v.State) && (v.Delivered || !needDelivered) {
				delete(m.jobs, id)
				m.order = slices.Delete(m.order, i, i+1)
				m.tomb = append(m.tomb, id)
				if len(m.tomb) > m.maxJobs {
					drop := m.tomb[0]
					m.tomb = m.tomb[1:]
					maps.DeleteFunc(m.keys, func(_, id string) bool { return id == drop })
				}
				return true
			}
		}
	}
	return false
}

// settle lets the worker take queued jobs until it holds a long one or
// the queue is empty.
func (m *model) settle() {
	for m.running == "" && len(m.queue) > 0 {
		j := m.jobs[m.queue[0]]
		id := m.queue[0]
		m.queue = m.queue[1:]
		if j == nil || j.v.State != StateAccepted {
			continue // canceled while queued
		}
		j.v.Attempt++
		switch j.kind {
		case "tiny":
			j.v.State, j.v.Result = StateComplete, m.okRes
		case "bad":
			j.v.State, j.v.Error = StateFailed, m.badErr
		default:
			j.v.State, m.running = StateRunning, id
		}
	}
}

func (m *model) read(id string) string {
	j := m.jobs[id]
	switch {
	case j != nil:
		if terminalState(j.v.State) {
			j.v.Delivered = true
		}
		return j.v.State
	case slices.Contains(m.tomb, id):
		return StateFlushed
	}
	return ""
}

func (m *model) suspend(id string) bool {
	j := m.jobs[id]
	if j == nil || j.v.State != StateRunning {
		return false
	}
	j.v.State, m.running = StateSuspended, ""
	return true
}

// readmit models resume and retry: "true", "false" (wrong state) or
// "busy" (backlog full, job untouched).
func (m *model) readmit(id, verb string) string {
	j := m.jobs[id]
	if j == nil {
		return "false"
	}
	switch st := j.v.State; {
	case verb == "resume" && st != StateSuspended,
		verb == "retry" && st != StateFailed && st != StateCanceled:
		return "false"
	case len(m.queue) >= m.backlog:
		return "busy"
	}
	j.v.State, j.v.Result, j.v.Error, j.v.Delivered = StateAccepted, "", "", false
	m.queue = append(m.queue, id)
	return "true"
}

func (m *model) cancel(id string) {
	j := m.jobs[id]
	if j == nil {
		return
	}
	switch j.v.State {
	case StateAccepted, StateSuspended:
		j.v.State, j.v.Error = StateCanceled, "canceled before running"
	case StateRunning:
		j.v.State, j.v.Error, m.running = StateCanceled, "context canceled", ""
	}
}
