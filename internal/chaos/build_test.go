package chaos

import (
	"testing"

	"hibernator/internal/sim"
)

// A BuildRun execution must be the same simulation the oracles run:
// byte-identical fingerprints across materializations and against the
// oracles' own path (checker plumbing and panic recovery included). The
// job server's result-verification contract (served result == direct
// sim.Run) rests on this.
func TestBuildRunMatchesInternalRun(t *testing.T) {
	s := Generate(1, 7)
	want, _, fail := runOnce(&s, false)
	if fail != nil {
		t.Fatalf("internal run failed: %v", fail)
	}
	for i := 0; i < 2; i++ {
		r, err := s.BuildRun()
		if err != nil {
			t.Fatalf("BuildRun #%d: %v", i, err)
		}
		res, err := sim.Run(r.Config, r.Source, r.Controller, r.Duration)
		if err != nil {
			t.Fatalf("run #%d: %v", i, err)
		}
		if fingerprintOf(res) != fingerprintOf(want) {
			t.Fatalf("BuildRun #%d diverged from internal run: %s",
				i, fingerprintOf(want).diff(fingerprintOf(res)))
		}
	}
}

// BuildRun must reject what Validate rejects.
func TestBuildRunValidates(t *testing.T) {
	s := Generate(1, 7)
	s.Duration = -1
	if _, err := s.BuildRun(); err == nil {
		t.Fatal("BuildRun accepted an invalid scenario")
	}
}
