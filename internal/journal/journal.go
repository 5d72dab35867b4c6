// Package journal is an append-only, fsynced JSONL log of work-unit
// lifecycle edges. Its users are the chaos soak's verdict log
// (internal/chaos, one running → done pair per scenario, so a long soak
// resumes where it died) and the job server's write-ahead log
// (internal/served, one line per job lifecycle edge). Each line is one
// Entry. Appends are fsynced, so every entry that OpenReplay later
// replays was durable before the crash; a torn final line — the one
// write a kill -9 can interrupt — is detected and truncated away on
// open. The journal keeps no per-run table in memory: a reader builds
// the view it needs from the replayed entries.
//
// The journal is trusted only about which edge each unit reached, never
// about result content: a user that keeps result artifacts beside it
// writes them atomically (internal/atomicio) and re-verifies their hash
// before reuse.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Statuses the soak's runs move through; other users define their own.
// "meta" is reserved for the journal's own header entry.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	statusMeta    = "meta"
)

// Entry is one journal line.
type Entry struct {
	// Run identifies the unit of work (scenario index, job ID).
	Run string `json:"run"`
	// Status names the lifecycle edge: a Status constant or the user's own.
	Status string `json:"status"`
	// Attempt counts executions of this run, 1-based (retries increment).
	Attempt int `json:"attempt,omitempty"`
	// SHA256 is the hex digest of a content artifact the entry refers to.
	SHA256 string `json:"sha256,omitempty"`
	// Detail carries a failure reason or auxiliary payload.
	Detail string `json:"detail,omitempty"`
}

// Journal is an open journal file. It is safe for concurrent use by the
// pool workers of one process.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	meta string
}

// Open opens (or creates) the journal at path. meta identifies the
// writer's configuration (flags, seed, scale); a fresh journal records
// it, and reopening a journal written under a different meta is an error — a
// resume with changed flags would silently mix incompatible results.
// A torn final line from a crashed writer is truncated away.
func Open(path, meta string) (*Journal, error) {
	return OpenReplay(path, meta, nil)
}

// OpenReplay opens the journal like Open and additionally hands every
// durable entry — in file order, with its 1-based line number — to the
// replay callback before returning. Callers build whatever view of the
// runs they need from it (the soak keeps each run's latest entry; the
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
