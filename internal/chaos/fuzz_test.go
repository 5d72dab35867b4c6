package chaos

import (
	"bytes"
	"strings"
	"testing"

	"hibernator/internal/scenario"
)

// FuzzParseRepro holds the repro parser to two properties: it never
// panics, and anything it accepts re-serializes canonically (write ->
// parse -> write is a fixed point).
func FuzzParseRepro(f *testing.F) {
	// A real repro file as the anchor seed.
	s := Generate(1, 0)
	armBug(&s)
	var buf bytes.Buffer
	if err := scenario.WriteRepro(&buf, &s); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	// Nasty corpus: truncations, NaNs, huge numbers, duplicate and
	// unknown keys, events out of range, missing header.
	f.Add("")
	f.Add("# hibchaos repro v1\n")
	f.Add("# hibchaos repro v1\nseed 1\nduration NaN\n")
	f.Add("# hibchaos repro v1\nduration 1e309\n")
	f.Add("# hibchaos repro v1\nseed 99999999999999999999\n")
	f.Add("# hibchaos repro v1\nfault 10,0,latent,5,-5\n")
	f.Add("# hibchaos repro v1\nambient.spinfail 0.5\n")
	f.Add("# hibchaos repro v1\nbug.energy-skew 1 2\n")
	f.Add("seed 1\nduration 60\n")
	f.Add("# hibchaos repro v1\nseed 1\nseed 2\nseed 3\n")
	f.Add("# hibchaos repro v1\ngroup-disks -4\n")

	f.Fuzz(func(t *testing.T, in string) {
		s, err := scenario.ParseRepro(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseRepro accepted an invalid scenario: %v", err)
		}
		var a bytes.Buffer
		if err := scenario.WriteRepro(&a, s); err != nil {
			t.Fatalf("WriteRepro: %v", err)
		}
		s2, err := scenario.ParseRepro(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\n%s", err, a.String())
		}
		var b bytes.Buffer
		if err := scenario.WriteRepro(&b, s2); err != nil {
			t.Fatalf("WriteRepro: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("not canonical:\n%s\nvs\n%s", a.String(), b.String())
		}
	})
}
