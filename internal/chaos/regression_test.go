package chaos

import (
	"path/filepath"
	"testing"

	"hibernator/internal/scenario"
)

// TestCheckedInReprosStayFixed replays every repro under testdata/repros.
// Each file is a shrunk reproducer for a bug the chaos soak found and this
// repo has since fixed, so every one must now pass all oracles. A failure
// here means a fixed bug regressed; run `hibsim -repro <file>` on the
// failing file for the full verdict.
//
// Provenance (hibchaos seed=1 n=5000, pre-fix): all three reproduce PDC
// migrating extents onto an illegal group in a fault-aware run, each via a
// different route into the illegal state —
//
//	seed1-2674: RAID5 group degraded by ambient transient errors evicting
//	            a member (no auto-rebuild, stays degraded)
//	seed1-1911: RAID5 group mid-rebuild (auto-rebuild armed)
//	seed1-2948: RAID0 group degraded by a scripted fail-stop
func TestCheckedInReprosStayFixed(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "repros", "*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checked-in repros found under testdata/repros")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Parallel()
			sc, err := scenario.LoadRepro(f)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if fail := Execute(sc); fail != nil {
				t.Fatalf("repro failed again (%s): %s", fail.Kind, fail.Detail)
			}
		})
	}
}
