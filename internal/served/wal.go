package served

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"hibernator/internal/atomicio"
	"hibernator/internal/journal"
	"hibernator/internal/snapshot"
)

// The write-ahead job log. Every job lifecycle edge is appended — and
// fsynced — to <state-dir>/jobs.jsonl through internal/journal, which
// already owns the hard parts: append-only durability, torn-tail
// truncation on reopen, and a meta guard refusing a log written under
// incompatible flags. Submitted scenario bytes are not inlined in the
// log; they live as content-addressed artifacts in
// <state-dir>/jobs.jsonl.d/<sha256>.repro (the hibexp -journal layout),
// written atomically *before* the accepted edge is appended, so an
// accepted entry always has its scenario on disk. Periodic run
// snapshots land in <state-dir>/snaps/<job>.snap via atomic writes; a
// recovered running job resumes from its latest one when it parses,
// and restarts from scratch otherwise — either way the result is
// byte-identical, because the simulation is deterministic.
//
// Ordering is the crash-safety argument: the accepted edge is durable
// before the client ever sees the job ID, so an ID a client holds can
// never be unknown after a restart; terminal edges are durable before
// the delivered edge; and an interrupted edge is exactly the torn tail
// journal.Open truncates, which re-runs the job — deterministic, so
// nothing observable changes.

// walMetaVersion is bumped on any incompatible WAL format change.
const walMetaVersion = "hibserved-wal/1"

// walDetail is the JSON payload of an accepted edge.
type walDetail struct {
	Client string `json:"client,omitempty"`
	Key    string `json:"key,omitempty"`
}

// wal owns the job log and its artifact/snapshot directories.
type wal struct {
	j       *journal.Journal
	artDir  string
	snapDir string
	frozen  atomic.Bool // test hook: simulate the crash point
	// observe, when set, sees every appended entry and the job it moved,
	// right after apply changed the job (test hook; j.mu is held).
	observe func(journal.Entry, *job)
}

// walMeta renders the meta guard line: flags that change what a replay
// would compute must match between the writer and the reopener.
func walMeta(o Options) string {
	return fmt.Sprintf("%s check=%t", walMetaVersion, o.Check)
}

// openWAL opens (or creates) the job log under dir and replays it,
// folding each entry into its job through apply. It returns every job
// the log names, in first-accepted order (voided admissions included,
// in state new, so the caller can issue IDs past them), and the flushed
// jobs in the order their flushed edges were logged. Replay errors carry
// the journal path and 1-based line number.
func openWAL(dir string, o Options) (w *wal, order, flushed []*job, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	path := filepath.Join(dir, "jobs.jsonl")
	w = &wal{artDir: path + ".d", snapDir: filepath.Join(dir, "snaps")}
	for _, d := range []string{w.artDir, w.snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, nil, err
		}
	}
	jobs := map[string]*job{}
	w.j, err = journal.OpenReplay(path, walMeta(o), func(_ int, e journal.Entry) error {
		if e.Run == "" {
			return fmt.Errorf("wal: entry without a job id")
		}
		j := jobs[e.Run]
		if j == nil {
			j = &job{id: e.Run}
			jobs[e.Run] = j
			order = append(order, j)
		}
		if e.Status == StateAccepted && j.state == stateNew {
			if err := j.identify(e); err != nil {
				return err
			}
		}
		if err := apply(j, e); err != nil {
			return err
		}
		if e.Status == StateFlushed {
			flushed = append(flushed, j)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return w, order, flushed, nil
}

// acceptedDetail renders the client identity an admission edge carries.
func acceptedDetail(client, key string) (string, error) {
	if client == "" && key == "" {
		return "", nil
	}
	b, err := json.Marshal(walDetail{Client: client, Key: key})
	return string(b), err
}

// identify reads a replayed job's identity from its admission edge: the
// scenario artifact's address and the submitting client's ID and key.
func (j *job) identify(e journal.Entry) error {
	if len(e.SHA256) != 64 {
		return fmt.Errorf("wal: job %s: accepted without a scenario sha256", e.Run)
	}
	var d walDetail
	if e.Detail != "" {
		if err := json.Unmarshal([]byte(e.Detail), &d); err != nil {
			return fmt.Errorf("wal: job %s: accepted detail: %v", e.Run, err)
		}
	}
	j.sha, j.client, j.key = e.SHA256, d.Client, d.Key
	return nil
}

// saveArtifact stores the canonical scenario bytes content-addressed
// and returns their sha256. Writing is idempotent — identical content
// hits the same path — and atomic, so a half-written artifact can never
// be read back.
func (w *wal) saveArtifact(body []byte) (string, error) {
	sum := sha256.Sum256(body)
	sha := hex.EncodeToString(sum[:])
	path := w.artifactPath(sha)
	if _, err := os.Stat(path); err == nil {
		return sha, nil
	}
	if err := atomicio.WriteFileBytes(path, body); err != nil {
		return "", err
	}
	return sha, nil
}

// loadArtifact reads an artifact back and re-verifies its content hash,
// so a corrupted file is detected instead of silently replaying a
// different scenario.
func (w *wal) loadArtifact(sha string) ([]byte, error) {
	body, err := os.ReadFile(w.artifactPath(sha))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != sha {
		return nil, fmt.Errorf("artifact %s: content hash %s does not match its address", sha[:12], got[:12])
	}
	return body, nil
}

func (w *wal) artifactPath(sha string) string {
	return filepath.Join(w.artDir, sha+".repro")
}

// saveSnap persists a job's latest periodic snapshot atomically,
// best-effort: losing one costs a restart-from-scratch, never
// correctness.
func (w *wal) saveSnap(id string, st *snapshot.State) {
	if w == nil || w.frozen.Load() || st == nil {
		return
	}
	_ = st.Save(w.snapPath(id))
}

// loadSnap returns the job's persisted snapshot, or nil when there is
// none or it does not parse (atomic writes make a torn file impossible,
// so a parse failure means external corruption — restart from scratch).
func (w *wal) loadSnap(id string) *snapshot.State {
	if w == nil {
		return nil
	}
	st, err := snapshot.Load(w.snapPath(id))
	if err != nil {
		return nil
	}
	return st
}

// dropSnap removes a job's snapshot once it can no longer be resumed.
func (w *wal) dropSnap(id string) {
	if w == nil || w.frozen.Load() {
		return
	}
	_ = os.Remove(w.snapPath(id))
}

func (w *wal) snapPath(id string) string {
	return filepath.Join(w.snapDir, id+".snap")
}

// freeze stops every subsequent disk write — the test hook that turns a
// live server into a crash scene: whatever is durable now is exactly
// what a kill -9 at this instant would have left.
func (w *wal) freeze() {
	if w != nil {
		w.frozen.Store(true)
	}
}

// close flushes and closes the log.
func (w *wal) close() {
	if w != nil && w.j != nil {
		_ = w.j.Close()
	}
}
