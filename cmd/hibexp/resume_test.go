package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hibernator/internal/journal"
)

// The crash-resume tests re-exec this test binary as hibexp (TestMain
// dispatches on the env var), so no separate `go build` is needed and
// the subprocess runs exactly the code under test.
const runMainEnv = "HIBEXP_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hibexpCmd builds a command that re-execs this binary as hibexp.
func hibexpCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// runHibexp runs to completion and returns stdout.
func runHibexp(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := hibexpCmd(args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("hibexp %v: %v\nstderr: %s", args, err, errb.String())
	}
	return out.Bytes()
}

// waitForDone polls the journal file until run's done entry is durable.
func waitForDone(t *testing.T, path, run string) {
	t.Helper()
	needle := `"run":"` + run + `","status":"done"`
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && strings.Contains(string(data), needle) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("journal %s never recorded %s done", path, run)
}

// The headline crash-safety property at the CLI level: a journaled suite
// resumed from its own journal reprints byte-identical output without
// re-running completed experiments.
func TestJournalResumeByteIdentical(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "run.jsonl")
	args := []string{"-run", "T1,T2", "-scale", "0.02", "-par", "1", "-journal", jnl}
	first := runHibexp(t, args...)

	before, err := os.Stat(jnl)
	if err != nil {
		t.Fatal(err)
	}
	second := runHibexp(t, append(args, "-resume")...)
	if !bytes.Equal(first, second) {
		t.Fatalf("resumed output diverged:\n%s\nvs\n%s", first, second)
	}
	after, err := os.Stat(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("resume re-ran journaled experiments (journal grew %d -> %d bytes)", before.Size(), after.Size())
	}
}

// interruptAndResume drives the full crash-recovery cycle: start a
// journaled suite, take it down with sig once the fast experiments'
// verdicts are durable, then resume and compare against an uninterrupted
// run. wantExit is the expected exit code of the interrupted process
// (-1 = died on a signal, Go's convention for ProcessState.ExitCode).
func interruptAndResume(t *testing.T, sig syscall.Signal, wantExit int) {
	t.Helper()
	// F1 takes a few seconds at this scale while T1/T2 finish in
	// milliseconds — a wide window for the signal to land mid-F1.
	sel := []string{"-run", "T1,T2,F1", "-scale", "0.05", "-par", "1"}
	clean := runHibexp(t, sel...)

	jnl := filepath.Join(t.TempDir(), "run.jsonl")
	cmd := hibexpCmd(append(sel, "-journal", jnl)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitForDone(t, jnl, "T2")
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != wantExit {
		t.Fatalf("interrupted run: exit %d (err %v), want %d", code, err, wantExit)
	}

	resumed := runHibexp(t, append(sel, "-journal", jnl, "-resume")...)
	if !bytes.Equal(clean, resumed) {
		t.Fatalf("post-%v resume diverged from a clean run:\n%s\nvs\n%s", sig, clean, resumed)
	}
	// The completed experiments must not have re-run: one running entry
	// each, from the interrupted process.
	data, err := os.ReadFile(jnl)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"T1", "T2"} {
		if n := strings.Count(string(data), `"run":"`+id+`","status":"running"`); n != 1 {
			t.Errorf("%s ran %d time(s) across interrupt+resume, want exactly 1", id, n)
		}
	}
}

// SIGINT drains the pool and exits 130 with every finished verdict
// durable; resume completes the suite byte-identically.
func TestSIGINTDrainAndResume(t *testing.T) {
	interruptAndResume(t, syscall.SIGINT, 130)
}

// kill -9 gets no chance to clean up — the fsynced journal and atomic
// artifacts must carry the resume on their own.
func TestKill9Resume(t *testing.T) {
	interruptAndResume(t, syscall.SIGKILL, -1)
}

// loadJournaled trusts nothing it cannot verify: a done entry only
// resumes when the artifact bytes hash to the recorded sha256.
func TestLoadJournaledVerifiesArtifact(t *testing.T) {
	artDir := t.TempDir()
	blob := []byte(`[{"ID":"T1","Title":"t","Columns":["a"],"Rows":[["1"]],"Notes":null}]`)
	sum := sha256.Sum256(blob)
	if err := os.WriteFile(filepath.Join(artDir, "T1.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	done := journal.Entry{Run: "T1", Status: journal.StatusDone, Attempt: 1, SHA256: hex.EncodeToString(sum[:])}

	if tables, ok := loadJournaled(done, artDir); !ok || len(tables) != 1 || tables[0].ID != "T1" {
		t.Fatalf("verified artifact did not load: ok=%t tables=%v", ok, tables)
	}
	// A run whose latest entry is not done re-runs even with a good
	// artifact on disk.
	running := done
	running.Status = journal.StatusRunning
	if _, ok := loadJournaled(running, artDir); ok {
		t.Fatal("running experiment resumed")
	}
	// Corrupt the artifact: the hash mismatch must force a fresh run,
	// never a silent reprint of bad bytes.
	if err := os.WriteFile(filepath.Join(artDir, "T1.json"), append(blob, ' '), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadJournaled(done, artDir); ok {
		t.Fatal("corrupted artifact resumed")
	}
	if _, ok := loadJournaled(journal.Entry{}, artDir); ok {
		t.Fatal("never-run experiment resumed")
	}
}
