// Package served turns the simulator into a long-running service: it
// accepts `# hibchaos repro v1` scenario submissions over HTTP/JSON,
// runs them as jobs on a bounded worker queue, and streams each job's
// observability output live.
//
// The package keeps the repository's two core contracts intact on the
// service path:
//
//   - Determinism. A job's result is the canonical fingerprint of its
//     simulation, rendered by RenderResult; it is byte-identical to what
//     a direct sim.Run of the same scenario produces (DirectRun is the
//     reference implementation, and the load harness asserts equality
//     job by job). The streamed metrics and trace bytes reuse the obs
//     package's incremental renderers, so they are byte-identical to the
//     file exporters' output.
//
//   - Bounded resources. The job table holds at most Options.MaxJobs
//     records; completed jobs are flushed (evicted to a tombstone) to
//     make room, and when every slot is still live the server refuses
//     the submission with 429 + Retry-After instead of queueing
//     unboundedly. At most Options.Workers simulations run at once.
//
// Job lifecycle: accepted → running → complete | failed | canceled,
// with running → suspended → accepted → running on suspend/resume, and
// any terminal state → flushed when the record is evicted. Suspension
// cancels the run's context and keeps its latest periodic snapshot; the
// resumed run restores from that snapshot, so its stream is an exact
// byte tail of the uninterrupted run's (the snapshot/restore contract).
//
// # Durability
//
// With Options.StateDir set (use Open, not New), the server is
// crash-recoverable: every lifecycle edge is appended to a fsynced
// write-ahead log, scenario bytes live as content-addressed artifacts,
// and periodic run snapshots are persisted atomically (see wal.go for
// the layout and the ordering argument). Reopening the same state
// directory replays the log — honoring torn-tail truncation and the
// meta guard against changed flags — rebuilds the job table and
// tombstone set, re-verifies artifact hashes, and re-enqueues every job
// that was accepted or running at the crash: with a persisted snapshot
// it resumes from there (its stream an exact byte tail), otherwise it
// restarts from scratch. Either way the recovered result is
// byte-identical to a direct run, so a kill -9 can delay a job but
// never lose or corrupt one. While the replay backlog drains the
// server sheds new submissions (503 + Retry-After; Ready reports the
// transition), and clients that submit with an idempotency key can
// blindly re-POST across a crash without ever duplicating a job.
// Without StateDir nothing is written anywhere and behavior is
// identical to the pre-durability server.
//
// # Fairness
//
// Options.QuotaRate/QuotaBurst arm a per-client token bucket and
// Options.MaxClientInflight caps one client's accepted+running jobs;
// both refuse with 429 and a Retry-After derived from the bucket
// deficit, with the response body naming quota-vs-capacity as the
// reason, so one greedy client can no longer starve the table.
package served

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hibernator/internal/invariant"
	"hibernator/internal/runner"
	"hibernator/internal/scenario"
	"hibernator/internal/sim"
	"hibernator/internal/snapshot"
)

// Job states. Terminal states (complete, failed, canceled) may be
// flushed; suspended jobs resume through accepted like a fresh admit.
const (
	StateAccepted  = "accepted"
	StateRunning   = "running"
	StateSuspended = "suspended"
	StateComplete  = "complete"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
	StateFlushed   = "flushed"
)

// Options configures a Server. The zero value is usable: every field
// has a sensible default.
type Options struct {
	// MaxJobs bounds the in-memory job table (default 256). Submissions
	// that cannot claim a slot — even after flushing the oldest terminal
	// job — are refused with 429.
	MaxJobs int
	// Workers is the number of simulations running concurrently
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// Backlog bounds accepted-but-not-yet-running jobs (default
	// MaxJobs). A full backlog refuses submissions with 429.
	Backlog int
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// Watchdog, when non-nil, is the per-job watchdog template: every
	// run executes under a copy of it, so one wedged scenario cannot
	// occupy a worker forever.
	Watchdog *sim.Watchdog
	// Attempts is how many times a failing run is retried in place
	// (default 1, i.e. no retry) with Backoff between attempts — the
	// runner.Retry schedule, meant for watchdog-aborted runs on loaded
	// machines.
	Attempts int
	// Backoff is the base retry backoff (default 100ms; doubling,
	// clamped at runner.MaxBackoff).
	Backoff time.Duration
	// Check arms the invariant checker on every run; violations fail
	// the job.
	Check bool
	// SnapshotFrac sets the periodic-snapshot cadence backing suspend:
	// one capture every Duration/SnapshotFrac simulated seconds
	// (default 8). Captures are pure reads — they never change a job's
	// result or stream bytes.
	SnapshotFrac int
	// StateDir, when non-empty, makes the server durable: the job
	// write-ahead log, scenario artifacts, and periodic snapshots live
	// under it, and Open replays them on restart. Empty (the default)
	// keeps everything in memory, exactly as before.
	StateDir string
	// QuotaRate, when > 0, arms a per-client token bucket admitting
	// this many submissions per second per client (burst QuotaBurst).
	QuotaRate float64
	// QuotaBurst is the bucket capacity for QuotaRate (default 1).
	QuotaBurst int
	// MaxClientInflight, when > 0, caps one client's jobs in the
	// accepted/running states.
	MaxClientInflight int
}

func (o *Options) withDefaults() Options {
	v := Options{}
	if o != nil {
		v = *o
	}
	if v.MaxJobs <= 0 {
		v.MaxJobs = 256
	}
	if v.Workers <= 0 {
		v.Workers = runtime.GOMAXPROCS(0)
	}
	if v.Backlog <= 0 {
		v.Backlog = v.MaxJobs
	}
	if v.RetryAfter <= 0 {
		v.RetryAfter = time.Second
	}
	if v.Attempts < 1 {
		v.Attempts = 1
	}
	if v.Backoff <= 0 {
		v.Backoff = 100 * time.Millisecond
	}
	if v.SnapshotFrac <= 0 {
		v.SnapshotFrac = 8
	}
	return v
}

// Stats counts the server's admission and recovery decisions — the load
// harness checks that every submission was either accepted or refused
// with an explicit status, never silently dropped, and the recovery
// counters say what a restart did with the log it found.
type Stats struct {
	Accepted uint64 `json:"accepted"`
	// Rejected counts whole-server capacity refusals (429, reason
	// "capacity").
	Rejected uint64 `json:"rejected"`
	// QuotaRejected counts per-client refusals (429, reason "quota").
	QuotaRejected uint64 `json:"quota_rejected"`
	// Shed counts submissions refused while the recovery backlog was
	// draining (503, reason "recovering").
	Shed uint64 `json:"shed"`
	// Deduped counts submissions answered with an existing job because
	// the client's idempotency key was already known.
	Deduped uint64 `json:"deduped"`
	Flushed uint64 `json:"flushed"`
	// Replayed counts jobs rebuilt from the write-ahead log at Open.
	Replayed uint64 `json:"replayed"`
	// Resumed counts recovered jobs re-enqueued with a verified
	// snapshot to resume from; Restarted counts those re-run from
	// scratch.
	Resumed   uint64 `json:"resumed"`
	Restarted uint64 `json:"restarted"`
}

// Server owns the job table and the worker queue. Create with New (or
// Open for a durable server), serve its Handler, and Close it to drain.
type Server struct {
	opts  Options
	queue *runner.Queue
	wal   *wal    // nil without StateDir
	quota *quotas // nil without quota options

	pending atomic.Int64  // recovered jobs not yet picked up by a worker
	stopc   chan struct{} // closed by Close; stops the recovery feeder

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string          // admission order, for flush-oldest
	flushed map[string]string // tombstoned id → its client key ("" if none)
	flushQ  []string          // tombstone eviction order
	keys    map[string]string // client idempotency key → job id
	seq     int
	closed  bool
	stats   Stats
}

// New starts an in-memory server with the given options (nil means all
// defaults). It panics when Options.StateDir is set and recovery fails;
// durable servers should use Open, which returns the error instead.
func New(opts *Options) *Server {
	s, err := Open(opts)
	if err != nil {
		panic("served: " + err.Error())
	}
	return s
}

// Open starts a server, recovering the job table from
// Options.StateDir's write-ahead log when one is configured. An error
// means the log or its artifacts are unusable (changed flags, semantic
// corruption past the torn tail, unreadable directory) — the server
// refuses to guess rather than half-recover.
func Open(opts *Options) (*Server, error) {
	o := opts.withDefaults()
	s := &Server{
		opts:    o,
		queue:   runner.NewQueue(o.Workers, o.Backlog),
		quota:   newQuotas(o.QuotaRate, o.QuotaBurst, o.MaxClientInflight, o.RetryAfter),
		stopc:   make(chan struct{}),
		jobs:    make(map[string]*job),
		flushed: make(map[string]string),
		keys:    make(map[string]string),
	}
	if o.StateDir == "" {
		return s, nil
	}
	w, records, maxSeq, err := openWALDir(o)
	if err != nil {
		s.queue.Close()
		return nil, err
	}
	s.wal = w
	s.seq = maxSeq
	pending := s.recover(records)
	s.pending.Store(int64(len(pending)))
	if len(pending) > 0 {
		go s.feedRecovered(pending)
	}
	return s, nil
}

// openWALDir opens the WAL and also extracts the highest job sequence
// number ever logged, so restarted servers never reissue an ID.
func openWALDir(o Options) (*wal, []*walRecord, int, error) {
	maxSeq := 0
	w, records, err := openWAL(o.StateDir, o, func(id string) {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n > maxSeq {
			maxSeq = n
		}
	})
	return w, records, maxSeq, err
}

// recover rebuilds the job table from replayed records and returns the
// jobs to re-enqueue, in their original admission order.
func (s *Server) recover(records []*walRecord) []*job {
	var pending []*job
	for _, r := range records {
		ck := clientKey(r.client, r.key)
		if r.state == StateFlushed {
			s.flushed[r.id] = ck
			s.flushQ = append(s.flushQ, r.id)
			if ck != "" {
				s.keys[ck] = r.id
			}
			continue
		}
		j := &job{
			srv:      s,
			id:       r.id,
			client:   r.client,
			key:      r.key,
			state:    r.state,
			walTries: r.attempt,
			metrics:  newClosedStream(nil),
			trace:    newClosedStream(nil),
		}
		s.stats.Replayed++
		switch {
		case terminalState(r.state):
			// Stream bytes are not persisted; the result and error are.
			// The scenario reloads best-effort — a terminal job with a
			// lost artifact still serves its result, just no shape string.
			if r.result != "" {
				j.result = append([]byte(r.result), '\n')
			}
			j.errMsg = r.errMsg
			j.delivered = r.delivered
			j.scenario, _ = s.rebuildScenario(r)
		case r.state == StateSuspended:
			sc, err := s.rebuildScenario(r)
			if err != nil {
				j.state = StateFailed
				j.errMsg = "recovery: " + err.Error()
				s.wal.edge(j.id, StateFailed, r.attempt, "", j.errMsg)
				break
			}
			j.scenario = sc
			snap := s.wal.loadSnap(r.id)
			if r.snapHash != "" && (snap == nil || snap.Hash() != r.snapHash) {
				snap = nil // stale or corrupt capture: resume restarts from t=0
			}
			j.snap = snap
		default: // accepted or running at crash time: re-enqueue
			sc, err := s.rebuildScenario(r)
			if err != nil {
				j.state = StateFailed
				j.errMsg = "recovery: " + err.Error()
				s.wal.edge(j.id, StateFailed, r.attempt, "", j.errMsg)
				break
			}
			j.scenario = sc
			j.state = StateAccepted
			j.recovered = true
			j.metrics, j.trace = newStream(), newStream()
			if r.state == StateRunning {
				if j.resumeFrom = s.wal.loadSnap(r.id); j.resumeFrom != nil {
					s.stats.Resumed++
				} else {
					s.stats.Restarted++
				}
			} else {
				s.stats.Restarted++
			}
			s.quota.reacquire(r.client)
			pending = append(pending, j)
		}
		s.jobs[r.id] = j
		s.order = append(s.order, r.id)
		if ck != "" {
			s.keys[ck] = r.id
		}
	}
	// The tombstone set stays bounded across restarts too.
	for len(s.flushQ) > s.opts.MaxJobs {
		s.dropTombstoneLocked()
	}
	return pending
}

// rebuildScenario loads and re-verifies a recovered job's artifact.
func (s *Server) rebuildScenario(r *walRecord) (*scenario.Scenario, error) {
	body, err := s.wal.loadArtifact(r.sha)
	if err != nil {
		return nil, err
	}
	return parseSubmission(body)
}

// feedRecovered re-enqueues recovered jobs, retrying while the backlog
// is full: unlike a client submission, a recovered job must never be
// dropped — that is the whole point of the log.
func (s *Server) feedRecovered(pending []*job) {
	for _, j := range pending {
		for !s.queue.TrySubmit(func() { s.runJob(j) }) {
			select {
			case <-s.stopc:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
}

// Ready reports whether the server is past recovery: true once every
// replayed pending job has been picked up by a worker (or the server
// was never durable). While false, submissions are shed with 503.
func (s *Server) Ready() bool { return s.pending.Load() == 0 }

// recoveredDoneLocked consumes a job's recovered mark (caller holds
// j.mu) the first time it leaves the replay backlog.
func (s *Server) recoveredDoneLocked(j *job) {
	if j.recovered {
		j.recovered = false
		s.pending.Add(-1)
	}
}

// Close stops admissions, cancels every running job, drains the queue,
// and closes the write-ahead log. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var cancels []*job
	for _, j := range s.jobs {
		cancels = append(cancels, j)
	}
	s.mu.Unlock()
	close(s.stopc)
	for _, j := range cancels {
		j.requestCancel()
	}
	s.queue.Close()
	s.wal.close()
}

// abort is the crash hook tests use: freeze every disk write at this
// instant, then tear the process-local state down. What the state
// directory holds afterward is exactly what a kill -9 would have left.
func (s *Server) abort() {
	s.wal.freeze()
	s.Close()
}

// Stats returns a copy of the admission counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// job is one submission's record. The server's mutex guards the table;
// the job's own mutex guards its mutable fields.
type job struct {
	srv      *Server
	id       string
	client   string // submitting client's self-reported ID
	key      string // client idempotency key ("" when unkeyed)
	scenario *scenario.Scenario

	mu         sync.Mutex
	state      string
	cancel     context.CancelFunc // non-nil while running
	runDone    chan struct{}      // closed when the current execution exits
	suspendReq bool
	cancelReq  bool
	recovered  bool            // replayed from the WAL, not yet restarted
	walTries   int             // executions logged, across restarts
	snap       *snapshot.State // latest periodic capture of the current run
	resumeFrom *snapshot.State // armed for the next execution
	metrics    *stream
	trace      *stream
	result     []byte // canonical result document (complete only)
	errMsg     string // failure detail (failed only)
	delivered  bool   // a terminal status was served to some client

	progress atomic.Uint64 // events fired, published by the run loops
}

// clientKey joins a client ID and idempotency key into one map key.
func clientKey(client, key string) string {
	if key == "" {
		return ""
	}
	return client + "\x1f" + key
}

// errBusy is the admission-refused sentinel; the HTTP layer maps it to
// 429 + Retry-After with reason "capacity".
var errBusy = errors.New("served: server at capacity")

// errClosed refuses work after Close.
var errClosed = errors.New("served: server closed")

// errRecovering sheds load while the replay backlog drains; the HTTP
// layer maps it to 503 + Retry-After with reason "recovering".
var errRecovering = errors.New("served: recovering, replay backlog draining")

// Submit admits a scenario and returns its job ID — the unkeyed,
// anonymous form of SubmitKeyed.
func (s *Server) Submit(sc *scenario.Scenario) (string, error) {
	id, _, err := s.SubmitKeyed(sc, "", "")
	return id, err
}

// SubmitKeyed admits a scenario on behalf of client. A non-empty key
// makes the submission idempotent: resubmitting the same (client, key)
// returns the existing job with existing=true instead of admitting a
// duplicate, which is what lets a client blindly re-POST across a
// server crash. Returns errBusy (capacity), a quota error (IsQuota),
// or errRecovering when the submission is refused.
func (s *Server) SubmitKeyed(sc *scenario.Scenario, client, key string) (id string, existing bool, err error) {
	if err := sc.Validate(); err != nil {
		return "", false, err
	}
	var sha string
	var body []byte
	if s.wal != nil {
		// Artifact before log entry: an accepted edge must always find
		// its scenario bytes on disk (see wal.go for the ordering).
		canonical, err := canonicalRepro(sc)
		if err != nil {
			return "", false, err
		}
		body = []byte(canonical)
	}
	ck := clientKey(client, key)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", false, errClosed
	}
	if ck != "" {
		if prior, ok := s.keys[ck]; ok {
			s.stats.Deduped++
			s.mu.Unlock()
			return prior, true, nil
		}
	}
	if !s.Ready() {
		s.stats.Shed++
		s.mu.Unlock()
		return "", false, errRecovering
	}
	if err := s.quota.admit(client); err != nil {
		s.stats.QuotaRejected++
		s.mu.Unlock()
		return "", false, err
	}
	if len(s.jobs) >= s.opts.MaxJobs && !s.flushOldestLocked() {
		s.stats.Rejected++
		s.quota.refund(client)
		s.mu.Unlock()
		return "", false, errBusy
	}
	if s.wal != nil {
		if sha, err = s.wal.saveArtifact(body); err != nil {
			s.quota.refund(client)
			s.mu.Unlock()
			return "", false, err
		}
	}
	s.seq++
	j := &job{
		srv:      s,
		id:       fmt.Sprintf("j%d", s.seq),
		client:   client,
		key:      key,
		scenario: sc,
		state:    StateAccepted,
		metrics:  newStream(),
		trace:    newStream(),
	}
	if s.wal != nil {
		if err := s.wal.appendAccepted(j.id, sha, client, key); err != nil {
			// Roll the admission back: a job the log does not know
			// would silently vanish on restart.
			s.seq--
			s.quota.refund(client)
			s.mu.Unlock()
			return "", false, err
		}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if ck != "" {
		s.keys[ck] = j.id
	}
	if !s.queue.TrySubmit(func() { s.runJob(j) }) {
		// Backlog full: roll the admission back so the table slot is not
		// leaked to a job that will never run, and void the log entry.
		s.wal.edge(j.id, walRejected, 0, "", "backlog full")
		delete(s.jobs, j.id)
		if ck != "" {
			delete(s.keys, ck)
		}
		s.order = s.order[:len(s.order)-1]
		s.stats.Rejected++
		s.quota.refund(client)
		s.mu.Unlock()
		return "", false, errBusy
	}
	s.stats.Accepted++
	s.mu.Unlock()
	return j.id, false, nil
}

// IsBusy reports whether err is the whole-server capacity refusal.
func IsBusy(err error) bool { return errors.Is(err, errBusy) }

// IsRecovering reports whether err is the recovery-shedding refusal.
func IsRecovering(err error) bool { return errors.Is(err, errRecovering) }

// flushOldestLocked evicts the oldest terminal job to a tombstone,
// reporting whether a slot was freed. Jobs whose terminal status has
// already been delivered to a client are preferred — flushing an unread
// result races the submitter's next poll — and suspended jobs are never
// flushed: they hold resumable state the client asked to keep.
func (s *Server) flushOldestLocked() bool {
	for _, needDelivered := range []bool{true, false} {
		for i, id := range s.order {
			j, ok := s.jobs[id]
			if !ok {
				continue
			}
			j.mu.Lock()
			flush := terminalState(j.state) && (j.delivered || !needDelivered)
			if flush {
				j.state = StateFlushed
			}
			j.mu.Unlock()
			if !flush {
				continue
			}
			s.wal.edge(id, StateFlushed, 0, "", "")
			s.wal.dropSnap(id)
			delete(s.jobs, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			s.flushed[id] = clientKey(j.client, j.key)
			s.flushQ = append(s.flushQ, id)
			if len(s.flushQ) > s.opts.MaxJobs {
				s.dropTombstoneLocked()
			}
			s.stats.Flushed++
			return true
		}
	}
	return false
}

// dropTombstoneLocked forgets the oldest tombstone and its idempotency
// key, keeping both maps bounded.
func (s *Server) dropTombstoneLocked() {
	id := s.flushQ[0]
	s.flushQ = s.flushQ[1:]
	if ck := s.flushed[id]; ck != "" {
		delete(s.keys, ck)
	}
	delete(s.flushed, id)
}

// lookup finds a live job. The second result distinguishes flushed
// (known-but-evicted) IDs from never-seen ones.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, false
	}
	_, flushed := s.flushed[id]
	return nil, flushed
}

// requestCancel asks the job to stop: a queued job is marked canceled in
// place (the queue entry becomes a no-op); a running one has its context
// cancelled. Terminal states are left alone.
func (j *job) requestCancel() {
	j.mu.Lock()
	switch j.state {
	case StateAccepted, StateSuspended:
		was := j.state
		j.state = StateCanceled
		j.cancelReq = true
		j.metrics.close()
		j.trace.close()
		j.srv.wal.edge(j.id, StateCanceled, j.walTries, "", "canceled before running")
		j.srv.wal.dropSnap(j.id)
		if was == StateAccepted {
			j.srv.quota.release(j.client)
		}
		j.srv.recoveredDoneLocked(j)
		j.mu.Unlock()
		return
	case StateRunning:
		j.cancelReq = true
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return
	}
	j.mu.Unlock()
}

// requestSuspend asks a running job to stop while keeping its latest
// snapshot for resume. It returns the channel to wait on (nil when the
// job was not running, with the state it was in instead).
func (j *job) requestSuspend() (<-chan struct{}, string) {
	j.mu.Lock()
	if j.state != StateRunning {
		st := j.state
		j.mu.Unlock()
		return nil, st
	}
	j.suspendReq = true
	cancel, done := j.cancel, j.runDone
	j.mu.Unlock()
	cancel()
	return done, StateRunning
}

// resume re-admits a suspended job: fresh streams (the resumed stream is
// a tail, not a continuation of the old buffer), restore state armed,
// back through the queue. Caller must map errBusy to 429.
func (s *Server) resume(j *job) error {
	j.mu.Lock()
	if j.state != StateSuspended {
		st := j.state
		j.mu.Unlock()
		return fmt.Errorf("served: job is %s, not suspended", st)
	}
	j.state = StateAccepted
	j.resumeFrom = j.snap
	j.suspendReq = false
	j.metrics = newStream()
	j.trace = newStream()
	s.quota.reacquire(j.client)
	s.wal.edge(j.id, StateAccepted, j.walTries, "", "")
	j.mu.Unlock()
	if !s.queue.TrySubmit(func() { s.runJob(j) }) {
		j.mu.Lock()
		j.state = StateSuspended
		s.quota.release(j.client)
		s.wal.edge(j.id, StateSuspended, j.walTries, snapHash(j.snap), "resume refused: backlog full")
		j.mu.Unlock()
		return errBusy
	}
	return nil
}

// retryJob re-admits a failed or canceled job from scratch.
func (s *Server) retryJob(j *job) error {
	j.mu.Lock()
	if j.state != StateFailed && j.state != StateCanceled {
		st := j.state
		j.mu.Unlock()
		return fmt.Errorf("served: job is %s, not failed or canceled", st)
	}
	j.state = StateAccepted
	j.resumeFrom = nil
	j.snap = nil
	j.suspendReq, j.cancelReq = false, false
	j.errMsg = ""
	j.result = nil
	j.delivered = false
	j.metrics = newStream()
	j.trace = newStream()
	j.progress.Store(0)
	s.quota.reacquire(j.client)
	s.wal.edge(j.id, StateAccepted, j.walTries, "", "")
	j.mu.Unlock()
	if !s.queue.TrySubmit(func() { s.runJob(j) }) {
		j.mu.Lock()
		j.state = StateFailed
		j.errMsg = "retry refused: backlog full"
		s.quota.release(j.client)
		s.wal.edge(j.id, StateFailed, j.walTries, "", j.errMsg)
		j.mu.Unlock()
		return errBusy
	}
	return nil
}

// snapHash returns the snapshot's content hash, or "" for nil.
func snapHash(st *snapshot.State) string {
	if st == nil {
		return ""
	}
	return st.Hash()
}

// parseSubmission decodes a `# hibchaos repro v1` request body.
func parseSubmission(body []byte) (*scenario.Scenario, error) {
	return scenario.ParseRepro(bytes.NewReader(body))
}

// canonicalRepro renders the scenario back in its canonical repro form —
// the dry-run echo clients can diff against what they sent, and the
// bytes the durable server stores as the job's artifact.
func canonicalRepro(sc *scenario.Scenario) (string, error) {
	var b bytes.Buffer
	if err := scenario.WriteRepro(&b, sc); err != nil {
		return "", err
	}
	return b.String(), nil
}

// waitIdle blocks until the job has no execution in flight.
func (j *job) waitIdle() {
	j.mu.Lock()
	done, running := j.runDone, j.state == StateRunning
	j.mu.Unlock()
	if running && done != nil {
		<-done
	}
}

// violationSummary renders up to three invariant violations on one line.
func violationSummary(chk *invariant.Checker) string {
	vs := chk.Violations()
	if len(vs) > 3 {
		vs = vs[:3]
	}
	parts := make([]string, 0, len(vs)+1)
	for _, v := range vs {
		parts = append(parts, v.String())
	}
	if total := chk.Count(); total > len(vs) {
		parts = append(parts, fmt.Sprintf("(+%d more)", total-len(vs)))
	}
	return strings.Join(parts, " | ")
}
