package chaos

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hibernator/internal/scenario"
)

// tinyScenario is a cheap, known-clean configuration used as the base of
// the oracle tests.
func tinyScenario() scenario.Scenario {
	return scenario.Scenario{
		Seed: 99, Duration: 60,
		Scheme: "base", Family: "enterprise", Levels: 1,
		Groups: 1, GroupDisks: 2, RAID: "raid0",
		Workload: "oltp", Rate: 10,
	}
}

func TestExecuteCleanScenario(t *testing.T) {
	s := tinyScenario()
	if fail := Execute(&s); fail != nil {
		t.Fatalf("clean scenario failed: %v", fail)
	}
}

func TestExecuteRejectsInvalidScenario(t *testing.T) {
	s := tinyScenario()
	s.Duration = -1
	fail := Execute(&s)
	if fail == nil || fail.Kind != FailError {
		t.Fatalf("want %s failure, got %v", FailError, fail)
	}
}

func TestExecuteCatchesInjectedEnergySkew(t *testing.T) {
	s := tinyScenario()
	s.BugEnergySkew, s.BugSkewAt, s.BugSkewDisk = 12345, 30, 0
	fail := Execute(&s)
	if fail == nil {
		t.Fatal("injected energy skew not caught")
	}
	if fail.Kind != FailInvariant {
		t.Fatalf("want %s failure, got %s: %s", FailInvariant, fail.Kind, fail.Detail)
	}
	if !strings.Contains(fail.Detail, "disk-energy") {
		t.Fatalf("detail does not name the disk-energy rule: %s", fail.Detail)
	}
	// The verdict itself must be deterministic — the soak report depends
	// on it.
	again := Execute(&s)
	if again == nil || *again != *fail {
		t.Fatalf("verdict not deterministic:\n%v\nvs\n%v", fail, again)
	}
}

func TestExecuteWithFaultsAndRetries(t *testing.T) {
	// A fail-stop on a RAID5 group with the retry policy armed: must pass
	// all oracles (this is the PR 2/PR 3 machinery under the PR 4 checker).
	s := scenario.Scenario{
		Seed: 4, Duration: 90,
		Scheme: "hibernator", Family: "enterprise", Levels: 3,
		Groups: 2, GroupDisks: 3, RAID: "raid5",
		Workload: "oltp", Rate: 20,
	}
	s.Retry.MaxRetries = 2
	s.Retry.Backoff = 0.01
	s.Retry.BackoffFactor = 2
	s.Retry.OpDeadline = 0.25
	s.Retry.AutoRebuild = true
	s.Events = append(s.Events, mustParseEvent(t, "30,1,failstop"))
	if fail := Execute(&s); fail != nil {
		t.Fatalf("fault scenario failed oracles: %v", fail)
	}
}

func TestExecuteKillAndRestoreOracle(t *testing.T) {
	// The kill-and-restore oracle on a loaded scenario: faults, retries,
	// multi-speed disks, and a mid-run snapshot. A pass proves
	// capture+restore reproduced the run bit for bit.
	s := scenario.Scenario{
		Seed: 4, Duration: 90,
		Scheme: "hibernator", Family: "enterprise", Levels: 3,
		Groups: 2, GroupDisks: 3, RAID: "raid5",
		Workload: "oltp", Rate: 20,
		SnapshotT: 45,
	}
	s.Retry.MaxRetries = 2
	s.Retry.Backoff = 0.01
	s.Retry.OpDeadline = 0.25
	s.Retry.AutoRebuild = true
	s.Events = append(s.Events, mustParseEvent(t, "30,1,failstop"))
	if got, want := RunsPerExecute(&s), 4; got != want {
		t.Fatalf("RunsPerExecute = %d, want %d", got, want)
	}
	if fail := Execute(&s); fail != nil {
		t.Fatalf("kill-and-restore scenario failed oracles: %v", fail)
	}
}

func TestExecuteRestoreOracleEveryScheme(t *testing.T) {
	// Satellite of the matrix in internal/sim: the chaos-level restore
	// oracle must hold for every scheme. The w1 case runs the scenario as
	// built; the w8 case runs it as read back from a repro written when
	// scenarios carried an engine width ("workers 8"), which must parse to
	// the same scenario and pass the same oracles.
	for _, scheme := range []string{"base", "tpm", "drpm", "pdc", "maid", "hibernator"} {
		for _, legacy := range []bool{false, true} {
			scheme, legacy := scheme, legacy
			name := scheme + "/w1"
			if legacy {
				name = scheme + "/w8"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				s := &Scenario{
					Seed: 7, Duration: 60,
					Scheme: scheme, Family: "enterprise", Levels: 3,
					Groups: 2, GroupDisks: 3, RAID: "raid5", SpareDisks: 1,
					Workload: "oltp", Rate: 15,
					SnapshotT: 30,
				}
				s.Rates.TransientProb = 0.002
				s.Retry.MaxRetries = 1
				s.Retry.Backoff = 0.01
				if legacy {
					var buf bytes.Buffer
					if err := scenario.WriteRepro(&buf, s); err != nil {
						t.Fatal(err)
					}
					text := strings.Replace(buf.String(), "snapshot-t ", "workers 8\nsnapshot-t ", 1)
					if !strings.Contains(text, "workers 8\n") {
						t.Fatalf("no snapshot-t line to put the workers line before:\n%s", text)
					}
					old, err := scenario.ParseRepro(strings.NewReader(text))
					if err != nil {
						t.Fatalf("repro with a workers line: %v", err)
					}
					if !reflect.DeepEqual(old, s) {
						t.Fatalf("workers line changed the scenario:\n got %+v\nwant %+v", *old, *s)
					}
					s = old
				}
				if fail := Execute(s); fail != nil {
					t.Fatalf("%s: %v", name, fail)
				}
			})
		}
	}
}

func TestFingerprintDiffNamesFields(t *testing.T) {
	a := Fingerprint{Requests: 10, Energy: 5}
	b := Fingerprint{Requests: 11, Energy: 5}
	if d := a.diff(b); !strings.Contains(d, "requests 10 != 11") {
		t.Fatalf("diff = %q", d)
	}
	if d := a.diff(a); d != "fingerprints agree" {
		t.Fatalf("self-diff = %q", d)
	}
}
