package served

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// jobView is the part of a job its log entries carry: exactly what
// replay must rebuild.
type jobView struct {
	State     string `json:"state"`
	Attempt   int    `json:"attempt,omitempty"`
	Result    string `json:"result,omitempty"`
	Error     string `json:"error,omitempty"`
	Delivered bool   `json:"delivered,omitempty"`
	SnapHash  string `json:"snap_hash,omitempty"`
	Client    string `json:"client,omitempty"`
	Key       string `json:"key,omitempty"`
}

// viewOf reads j's logged fields; the caller holds j.mu or owns j.
func viewOf(j *job) jobView {
	return jobView{
		State: j.state, Attempt: j.walTries, Result: j.result, Error: j.errMsg,
		Delivered: j.delivered, SnapHash: j.snapHash, Client: j.client, Key: j.key,
	}
}

// tableView is a whole job table: live jobs, tombstones in eviction
// order, idempotency keys, and the next ID to be issued.
type tableView struct {
	Jobs       map[string]jobView `json:"jobs"`
	Tombstones []string           `json:"tombstones"`
	Keys       map[string]string  `json:"keys"`
	NextID     string             `json:"next_id"`
}

func (a tableView) equal(b tableView) bool {
	return maps.Equal(a.Jobs, b.Jobs) && slices.Equal(a.Tombstones, b.Tombstones) &&
		maps.Equal(a.Keys, b.Keys) && a.NextID == b.NextID
}

// liveTable snapshots a server's table.
func liveTable(s *Server) tableView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := tableView{Jobs: map[string]jobView{}, Tombstones: slices.Clone(s.flushQ), Keys: maps.Clone(s.keys),
		NextID: fmt.Sprintf("j%d", s.seq+1)}
	for id, j := range s.jobs {
		j.mu.Lock()
		v.Jobs[id] = viewOf(j)
		j.mu.Unlock()
	}
	return v
}

// TestCompatCorpus opens a copy of every checked-in state dir an
// earlier server wrote (testdata/compat/hibserved-wal/<version>/state)
// and checks the job table it recovers against the table pinned next to
// it. The dirs hold one of every edge kind, including the resume
// rollback and rejected edges only older servers write, and an accepted
// job whose artifact carries the `workers N` line repros once had; that
// job must run to the result a direct run of its scenario gives.
func TestCompatCorpus(t *testing.T) {
	dirs, err := filepath.Glob("../../testdata/compat/hibserved-wal/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no hibserved-wal corpus: %v", err)
	}
	for _, dir := range dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			var want tableView
			b, err := os.ReadFile(filepath.Join(dir, "table.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatal(err)
			}
			state := t.TempDir()
			copyDir(t, filepath.Join(dir, "state"), state)
			s, err := Open(&Options{StateDir: state})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var got tableView
			deadline := time.Now().Add(30 * time.Second)
			for {
				got = liveTable(s)
				settled := s.Ready()
				for _, v := range got.Jobs {
					settled = settled && v.State != StateAccepted && v.State != StateRunning
				}
				if settled || time.Now().After(deadline) {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !got.equal(want) {
				g, _ := json.MarshalIndent(got, "", "\t")
				t.Fatalf("recovered table differs from the pinned one:\n%s", g)
			}
			// Every job that recovery re-ran gives the direct run's result.
			for id, v := range got.Jobs {
				if v.State != StateComplete {
					continue
				}
				j, _ := s.lookup(id)
				want, _, _, err := DirectRun(j.scenario, false)
				if err != nil {
					t.Fatal(err)
				}
				if v.Result+"\n" != string(want) {
					t.Fatalf("%s: result %s, direct run %s", id, v.Result, want)
				}
			}
		})
	}
}

// copyDir copies the regular files under src to the same paths under dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
