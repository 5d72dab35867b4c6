package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hibernator/internal/snapshot"
)

// The CLI resume tests re-exec this test binary as hibsim (TestMain
// dispatches on the env var), so the subprocess runs exactly the flag
// wiring under test without a separate `go build`.
const runMainEnv = "HIBSIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runHibsim runs to completion and returns stdout; wantOK=false expects a
// non-zero exit and returns stderr instead.
func runHibsim(t *testing.T, wantOK bool, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if wantOK {
		if err != nil {
			t.Fatalf("hibsim %v: %v\nstderr: %s", args, err, errb.String())
		}
		return out.Bytes()
	}
	if err == nil {
		t.Fatalf("hibsim %v: expected failure, got success\nstdout: %s", args, out.String())
	}
	return errb.Bytes()
}

// resultLines strips the operational chatter — the "resumed"/"snapshots"
// status lines, the wall-clock half of the "simulated" line, and the
// metrics destination path — so a resumed run's report can be compared
// to an uninterrupted one's.
func resultLines(out []byte) string {
	var keep []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "resumed ") || strings.HasPrefix(line, "snapshots ") {
			continue
		}
		if strings.HasPrefix(line, "simulated ") {
			line, _, _ = strings.Cut(line, ", wall")
		}
		if strings.HasPrefix(line, "metrics ") {
			// Sample count and path differ by design on a resumed run
			// (pre-checkpoint samples are suppressed); the exact-tail
			// check below covers the stream's content.
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// The hibsim-level restore contract: checkpoint a run, resume from the
// latest checkpoint with the same flags, and the final report — and the
// metrics tail — match the uninterrupted run, with -check armed the
// whole way.
func TestSnapshotResumeCLI(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "ckpt.snap")
	base := []string{"-scheme", "hibernator", "-workload", "cello", "-duration", "600",
		"-groups", "2", "-group-disks", "3", "-seed", "7", "-check",
		"-sample-every", "50"}

	full := runHibsim(t, true, append(base, "-metrics-out", filepath.Join(dir, "full.jsonl"))...)
	ckpt := runHibsim(t, true, append(base,
		"-metrics-out", filepath.Join(dir, "ckpt.jsonl"),
		"-snapshot-out", snap, "-snapshot-every", "150")...)
	if resultLines(full) != resultLines(ckpt) {
		t.Fatalf("snapshotting perturbed the run:\n%s\nvs\n%s", full, ckpt)
	}

	resumed := runHibsim(t, true, append(base,
		"-metrics-out", filepath.Join(dir, "res.jsonl"),
		"-resume-from", snap)...)
	if resultLines(full) != resultLines(resumed) {
		t.Fatalf("resumed run diverged:\n%s\nvs\n%s", full, resumed)
	}
	if !bytes.Contains(resumed, []byte("state verified")) {
		t.Fatalf("resumed run did not report the restore:\n%s", resumed)
	}

	// The resumed metrics stream must be an exact tail of the full one:
	// samples before the checkpoint are suppressed, everything after is
	// byte-identical.
	fullM, err := os.ReadFile(filepath.Join(dir, "full.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	resM, err := os.ReadFile(filepath.Join(dir, "res.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resM) == 0 || len(resM) >= len(fullM) {
		t.Fatalf("resumed metrics: %d bytes, full run: %d bytes; want a proper non-empty tail", len(resM), len(fullM))
	}
	if !bytes.HasSuffix(fullM, resM) {
		t.Fatalf("resumed metrics stream is not a tail of the full run's")
	}
}

// Resuming under different flags must fail up front, naming the
// mismatched identity key — never silently continue a different run.
func TestResumeRejectsChangedFlags(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "ckpt.snap")
	base := []string{"-scheme", "tpm", "-workload", "oltp", "-duration", "400",
		"-groups", "2", "-group-disks", "3", "-seed", "3"}
	runHibsim(t, true, append(base, "-snapshot-out", snap, "-snapshot-every", "100")...)

	// Changed CLI workload identity.
	errOut := runHibsim(t, false, append(base[:2], "-workload", "cello", "-duration", "400",
		"-groups", "2", "-group-disks", "3", "-seed", "3", "-resume-from", snap)...)
	if !bytes.Contains(errOut, []byte("cli.workload")) {
		t.Fatalf("changed workload not named: %s", errOut)
	}
	// Changed simulation config (seed).
	errOut = runHibsim(t, false, append(base[:len(base)-1], "9", "-resume-from", snap)...)
	if !bytes.Contains(errOut, []byte("config.seed")) {
		t.Fatalf("changed seed not named: %s", errOut)
	}
	if n := bytes.Count(bytes.TrimRight(errOut, "\n"), []byte("\n")); n != 0 {
		t.Fatalf("want a one-line diagnostic, got %d lines: %s", n+1, errOut)
	}
	// Changed epoch (recorded as its resolved default, duration/4).
	errOut = runHibsim(t, false, append(base, "-epoch", "123", "-resume-from", snap)...)
	if !bytes.Contains(errOut, []byte("cli.epoch")) {
		t.Fatalf("changed epoch not named: %s", errOut)
	}
}

// Snapshots written while hibsim still had an engine-width flag carry a
// cli.workers identity key. Keys this binary does not check are ignored,
// so such a snapshot still resumes, and the resumed report matches an
// uninterrupted run's.
func TestResumeAcceptsSnapshotWithWorkersKey(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "ckpt.snap")
	base := []string{"-scheme", "tpm", "-workload", "oltp", "-duration", "400",
		"-groups", "2", "-group-disks", "3", "-seed", "3"}
	full := runHibsim(t, true, append(base, "-snapshot-out", snap, "-snapshot-every", "100")...)

	st, err := snapshot.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	st.Set("cli.workers", "4")
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	resumed := runHibsim(t, true, append(base, "-resume-from", snap)...)
	if got, want := resultLines(resumed), resultLines(full); got != want {
		t.Fatalf("resumed report differs from the full run's:\n got: %s\nwant: %s", got, want)
	}
	// The flag itself is gone: every run is sequential.
	if errOut := runHibsim(t, false, append(base, "-workers", "4")...); !bytes.Contains(errOut, []byte("-workers")) {
		t.Fatalf("-workers not rejected by name: %s", errOut)
	}
}
