package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// replayLatest reopens the journal at path and returns each run's latest
// entry, the view the suites build from the replay.
func replayLatest(t *testing.T, path, meta string) (*Journal, map[string]Entry) {
	t.Helper()
	latest := map[string]Entry{}
	j, err := OpenReplay(path, meta, func(_ int, e Entry) error {
		latest[e.Run] = e
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, latest
}

func TestJournalLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	j, err := Open(path, "meta-v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Run: "r1", Status: StatusRunning, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Run: "r1", Status: StatusDone, Attempt: 1, SHA256: "ab12"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Run: "r2", Status: StatusRunning, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: r1 is done with its hash, r2 was mid-flight.
	j2, latest := replayLatest(t, path, "meta-v1")
	defer j2.Close()
	if e := latest["r1"]; e.Status != StatusDone || e.SHA256 != "ab12" {
		t.Fatalf("r1 latest = %v", e)
	}
	if e, ok := latest["r2"]; !ok || e.Status != StatusRunning {
		t.Fatalf("r2 latest = %v %v", e, ok)
	}
	if len(latest) != 2 {
		t.Fatalf("runs = %d", len(latest))
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	j, err := Open(path, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Run: "r1", Status: StatusDone, SHA256: "ff"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a kill -9 mid-append: a partial JSON line with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"run":"r2","sta`)
	f.Close()

	j2, latest := replayLatest(t, path, "m")
	if _, ok := latest["r2"]; ok {
		t.Fatal("torn entry must not surface")
	}
	if latest["r1"].Status != StatusDone {
		t.Fatal("r1 lost")
	}
	// The torn bytes are gone: a fresh append then reopen parses cleanly.
	if err := j2.Append(Entry{Run: "r3", Status: StatusDone, SHA256: "aa"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, latest := replayLatest(t, path, "m")
	defer j3.Close()
	if latest["r3"].Status != StatusDone {
		t.Fatal("r3 lost after torn-tail truncation")
	}
}

func TestJournalMetaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	j, err := Open(path, "seed=1 n=100")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, err = Open(path, "seed=2 n=100")
	if err == nil || !strings.Contains(err.Error(), "seed=1") {
		t.Fatalf("want meta mismatch naming the recorded config, got %v", err)
	}
}

func TestOpenReplayStreamsEntriesInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	j, err := Open(path, "m")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Entry{
		{Run: "a", Status: StatusRunning, Attempt: 1},
		{Run: "b", Status: StatusRunning, Attempt: 1},
		{Run: "a", Status: StatusDone, SHA256: "aa"},
	} {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	var got []Entry
	var lines []int
	j2, err := OpenReplay(path, "m", func(line int, e Entry) error {
		got = append(got, e)
		lines = append(lines, line)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != 3 || got[0].Run != "a" || got[1].Run != "b" || got[2].Status != StatusDone {
		t.Fatalf("replayed %+v", got)
	}
	// Line 1 is the meta entry, so the replayed entries sit on 2..4.
	if lines[0] != 2 || lines[1] != 3 || lines[2] != 4 {
		t.Fatalf("line numbers %v, want [2 3 4]", lines)
	}
}

func TestOpenReplayCallbackErrorAbortsWithLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	j, err := Open(path, "m")
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Entry{Run: "a", Status: StatusRunning, Attempt: 1})
	j.Append(Entry{Run: "a", Status: "bogus"})
	j.Close()
	boom := errors.New("unknown status")
	_, err = OpenReplay(path, "m", func(line int, e Entry) error {
		if e.Status == "bogus" {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want wrapped line-3 error, got %v", err)
	}
}
