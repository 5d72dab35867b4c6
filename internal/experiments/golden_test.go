package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// suiteGolden is the full reference suite (`-run all -scale 0.05`, seed
// 1) rendered as renderAll does: every table as the binary prints it,
// plus its CSV form.
const (
	suiteGolden       = "testdata/suite-scale0.05.golden"
	suiteGoldenSHA    = "a9e76fb024bca3fa" // first 8 bytes of the sha256
	suiteGoldenLength = 24366
)

// TestSuiteGolden pins every number the reference suite prints. A change
// that is meant to keep behaviour (a refactor, a speed-up) must leave it
// passing; a change that moves results on purpose replaces the golden
// file and the hash and length constants in the same commit. On a mismatch
// the test names the first divergent byte with context on both sides.
func TestSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reference suite")
	}
	want, err := os.ReadFile(suiteGolden)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(want)
	if got := hex.EncodeToString(sum[:8]); got != suiteGoldenSHA || len(want) != suiteGoldenLength {
		t.Fatalf("%s: sha256 %s, %d bytes; want %s, %d bytes", suiteGolden, got, len(want), suiteGoldenSHA, suiteGoldenLength)
	}

	resetMemos() // a memoized bake-off from another test would hide a recompute
	var got string
	for _, e := range All() {
		tables, err := e.Run(Opts{Scale: 0.05, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got += renderAll(t, tables)
	}
	gotSum := sha256.Sum256([]byte(got))
	t.Logf("suite output: %d bytes, sha256 %s", len(got), hex.EncodeToString(gotSum[:8]))
	if got == string(want) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo, hi := i-80, i+80
	if lo < 0 {
		lo = 0
	}
	clip := func(s string) string {
		if hi > len(s) {
			return s[lo:]
		}
		return s[lo:hi]
	}
	t.Fatalf("suite output diverged from %s at byte %d (%d bytes, sha256 %s):\n  want: %q\n  got:  %q",
		suiteGolden, i, len(got), hex.EncodeToString(gotSum[:8]), clip(string(want)), clip(got))
}
