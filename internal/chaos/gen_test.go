package chaos

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"hibernator/internal/scenario"
)

// The generator's contract: every sampled scenario is valid, and sampling
// is a pure function of (seed, index).

func TestGenerateAlwaysValid(t *testing.T) {
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		for i := 0; i < 300; i++ {
			s := Generate(seed, i)
			if err := s.Validate(); err != nil {
				t.Fatalf("Generate(%d, %d) invalid: %v\n%s", seed, i, err, s.String())
			}
			if s.Scheme == "maid" && s.SpareDisks < 1 {
				t.Fatalf("Generate(%d, %d): maid without spares", seed, i)
			}
			for j, ev := range s.Events {
				if ev.Disk < 0 || ev.Disk >= s.TotalDisks() {
					t.Fatalf("Generate(%d, %d): event %d targets disk %d of %d", seed, i, j, ev.Disk, s.TotalDisks())
				}
			}
		}
	}
}

// TestGenerateStreamPinned pins the seed-1 scenario stream, which is what
// the reference soak (hibchaos -seed 1 -n 5000) runs. The first hash
// covers String() of the first 200 scenarios, one per line. It was taken
// when Scenario still had an engine-width field, with that field's
// " workers=N" token stripped; Generate still consumes that draw, so
// every later draw (SnapshotT first) is unchanged. The second hash
// covers the same 200 scenarios' repro bytes (WriteRepro, concatenated),
// so the serialized form is pinned field for field, not just the
// one-line summary.
func TestGenerateStreamPinned(t *testing.T) {
	h := sha256.New()
	repro := sha256.New()
	for i := 0; i < 200; i++ {
		s := Generate(1, i)
		fmt.Fprintln(h, s.String())
		if err := scenario.WriteRepro(repro, &s); err != nil {
			t.Fatal(err)
		}
	}
	const want = "75e6a780e46b808e1d42d535a1c50c9d8c3111c3ec4aa144b32c095fd6a5fc39"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("seed-1 scenario stream changed: sha256 %s, want %s", got, want)
	}
	const wantRepro = "6c32dbb3f588e36bd8d6a84fb2785db3b5948a035ec8d2af079990e8a3566726"
	if got := fmt.Sprintf("%x", repro.Sum(nil)); got != wantRepro {
		t.Fatalf("seed-1 repro bytes changed: sha256 %s, want %s", got, wantRepro)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		a := Generate(42, i)
		b := Generate(42, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Generate(42, %d) not deterministic:\n%s\n%s", i, a.String(), b.String())
		}
	}
}

func TestGenerateIndicesDiffer(t *testing.T) {
	// Neighboring indices must not collapse to the same scenario (a seed
	// derivation bug would make the whole soak re-test one configuration).
	distinct := map[string]bool{}
	for i := 0; i < 40; i++ {
		s := Generate(9, i)
		distinct[s.String()] = true
	}
	if len(distinct) < 35 {
		t.Fatalf("only %d distinct scenarios in 40 indices", len(distinct))
	}
}

func TestSnapQuantizesToMilliseconds(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0, 0}, {1.23456, 1.234}, {59.9999, 59.999}, {100, 100},
	} {
		if got := snap(tc.in); got != tc.want {
			t.Errorf("snap(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}
