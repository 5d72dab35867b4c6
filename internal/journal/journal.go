// Package journal records a suite's run lifecycle in an append-only
// JSONL file so an interrupted suite can resume where it died. Each line
// is one Entry: a run moves running → done (with the sha256 of its
// result artifact) or failed (with a structured reason). Appends are
// fsynced, so every entry that OpenReplay later replays was durable
// before the crash; a torn final line — the one write a kill -9 can
// interrupt — is detected and truncated away on open. The journal keeps
// no per-run table in memory: a reader builds the view it needs from
// the replayed entries.
//
// The journal is an operational artifact, not a deterministic one: it
// may carry wall-clock durations and attempt counts. Result artifacts
// themselves are written atomically elsewhere (internal/atomicio) and
// verified by hash on resume, so the journal never has to be trusted
// about content — only about which runs are worth re-checking.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Statuses a run moves through. "meta" is reserved for the journal's own
// header entry.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	statusMeta    = "meta"
)

// Entry is one journal line.
type Entry struct {
	// Run identifies the unit of work (experiment ID, scenario index).
	Run string `json:"run"`
	// Status is one of the Status constants.
	Status string `json:"status"`
	// Attempt counts executions of this run, 1-based (retries increment).
	Attempt int `json:"attempt,omitempty"`
	// SHA256 is the hex digest of the run's result artifact (done only).
	SHA256 string `json:"sha256,omitempty"`
	// Detail carries a failure reason or auxiliary payload.
	Detail string `json:"detail,omitempty"`
	// Wall is the run's wall-clock duration in seconds (operational;
	// never part of any deterministic output).
	Wall float64 `json:"wall_s,omitempty"`
}

// Journal is an open journal file. It is safe for concurrent use by the
// pool workers of one process.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	meta string
}

// Open opens (or creates) the journal at path. meta identifies the suite
// configuration (flags, seed, scale); a fresh journal records it, and
// reopening a journal written under a different meta is an error — a
// resume with changed flags would silently mix incompatible results.
// A torn final line from a crashed writer is truncated away.
func Open(path, meta string) (*Journal, error) {
	return OpenReplay(path, meta, nil)
}

// OpenReplay opens the journal like Open and additionally hands every
// durable entry — in file order, with its 1-based line number — to the
// replay callback before returning. Callers build whatever view of the
// runs they need from it (the suites keep each run's latest entry; the
// job server rebuilds a full lifecycle from the stream of edges); a
// callback error aborts the open and is returned verbatim, wrapped with
// the line number, so a semantically corrupt journal fails loudly
// instead of being half-applied. Meta entries are not replayed.
func OpenReplay(path, meta string, replay func(line int, e Entry) error) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	valid := 0 // bytes of fully-parsed lines
	line := 0
	for len(data[valid:]) > 0 {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // torn tail: no newline made it to disk
		}
		var e Entry
		if err := json.Unmarshal(data[valid:valid+nl], &e); err != nil {
			break // torn tail: newline from a later write, partial JSON
		}
		valid += nl + 1
		line++
		if e.Status == statusMeta {
			if j.meta == "" {
				j.meta = e.Detail
			}
			continue
		}
		if replay != nil {
			if err := replay(line, e); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: line %d: %w", path, line, err)
			}
		}
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if j.meta == "" && valid == 0 {
		j.meta = meta
		if err := j.append(Entry{Run: "journal", Status: statusMeta, Detail: meta}); err != nil {
			f.Close()
			return nil, err
		}
	} else if j.meta != meta {
		f.Close()
		return nil, fmt.Errorf("journal %s: recorded config %q does not match current %q (use a fresh journal or the original flags)", path, j.meta, meta)
	}
	return j, nil
}

// Append records one entry durably: the line is written and fsynced
// before Append returns, so a later crash cannot lose it.
func (j *Journal) Append(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.append(e)
}

func (j *Journal) append(e Entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
