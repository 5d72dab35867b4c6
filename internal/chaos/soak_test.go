package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hibernator/internal/fault"
	"hibernator/internal/scenario"
)

// mustParseEvent parses a fault-CSV line or fails the test.
func mustParseEvent(t *testing.T, line string) fault.Event {
	t.Helper()
	ev, err := fault.ParseEvent(line)
	if err != nil {
		t.Fatalf("ParseEvent(%q): %v", line, err)
	}
	return ev
}

func soakReportString(t *testing.T, opts SoakOptions) string {
	t.Helper()
	rep, err := Soak(opts)
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.String()
}

// The issue's acceptance criterion: for a fixed seed and n, the soak
// report is byte-identical across -par widths (and across repeat runs).
func TestSoakReportIndependentOfParallelism(t *testing.T) {
	base := SoakOptions{Seed: 11, N: 10}
	seq := base
	seq.Workers = 1
	wide := base
	wide.Workers = 8
	a := soakReportString(t, seq)
	b := soakReportString(t, wide)
	if a != b {
		t.Fatalf("report differs between -par 1 and -par 8:\n%s\nvs\n%s", a, b)
	}
	if c := soakReportString(t, wide); b != c {
		t.Fatalf("report differs across repeat runs:\n%s\nvs\n%s", b, c)
	}
}

// TestSoakJournalResume: a journaled soak resumed from its own journal
// reprints the identical report without re-running any scenario — the
// long-soak crash-recovery contract.
func TestSoakJournalResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "soak.jsonl")
	// InjectBug makes every scenario fail, so the journal also has to
	// round-trip shrink results, not just clean verdicts.
	opts := SoakOptions{Seed: 1, N: 3, Workers: 2, InjectBug: true, ShrinkBudget: 10, Journal: jpath}
	first := soakReportString(t, opts)

	before, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	second := soakReportString(t, opts)
	if first != second {
		t.Fatalf("resumed report diverged:\n%s\nvs\n%s", first, second)
	}
	after, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("resume re-ran journaled scenarios (journal grew %d -> %d bytes)", before.Size(), after.Size())
	}

	// A journal written under different options must refuse to resume.
	opts.Seed = 2
	if _, err := Soak(opts); err == nil || !strings.Contains(err.Error(), "seed=1") {
		t.Fatalf("want meta mismatch naming recorded config, got %v", err)
	}
}

// The injected-bug self test, end to end: the soak must catch the skew in
// every scenario, shrink each to the acceptance bounds, and write repro
// files that still fail when replayed from disk (the hibsim -repro path).
func TestSoakFindsAndShrinksInjectedBug(t *testing.T) {
	dir := t.TempDir()
	rep, err := Soak(SoakOptions{Seed: 1, N: 3, Workers: 4, InjectBug: true, OutDir: dir})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if len(rep.Failures) != 3 {
		t.Fatalf("injected bug caught in %d/3 scenarios", len(rep.Failures))
	}
	for _, f := range rep.Failures {
		if f.Failure.Kind != FailInvariant || !strings.Contains(f.Failure.Detail, "disk-energy") {
			t.Errorf("scenario %d: want disk-energy invariant failure, got %s: %s",
				f.Index, f.Failure.Kind, f.Failure.Detail)
		}
		m := f.Shrunk.Scenario
		if len(m.Events) > 2 || m.TotalDisks() > 4 {
			t.Errorf("scenario %d: shrunk to %d events / %d disks, want <= 2 / <= 4",
				f.Index, len(m.Events), m.TotalDisks())
		}
		// Replay from the file, exactly as `hibsim -repro` does.
		got, err := scenario.LoadRepro(f.ReproPath)
		if err != nil {
			t.Fatalf("scenario %d: %v", f.Index, err)
		}
		fail := Execute(got)
		if fail == nil {
			t.Errorf("scenario %d: repro file no longer fails", f.Index)
		} else if *fail != f.Shrunk.Failure {
			t.Errorf("scenario %d: replay verdict %v, soak saw %v", f.Index, fail, f.Shrunk.Failure)
		}
	}
}

func TestSoakRejectsNegativeN(t *testing.T) {
	if _, err := Soak(SoakOptions{N: -1}); err == nil {
		t.Fatal("negative N accepted")
	}
}

func TestSoakWritesOneReproPerFailure(t *testing.T) {
	dir := t.TempDir()
	rep, err := Soak(SoakOptions{Seed: 2, N: 2, InjectBug: true, OutDir: dir})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(rep.Failures) {
		t.Fatalf("%d repro files for %d failures", len(ents), len(rep.Failures))
	}
	for _, f := range rep.Failures {
		if filepath.Dir(f.ReproPath) != dir {
			t.Errorf("repro path %s outside %s", f.ReproPath, dir)
		}
	}
}
