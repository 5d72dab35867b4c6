package chaos

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Repro files must round-trip every scenario field exactly: the file is
// the reproducer, so a lossy field would replay a different run.

func TestReproRoundTrip(t *testing.T) {
	for i := 0; i < 60; i++ {
		s := Generate(3, i)
		if i%2 == 0 {
			armBug(&s)
		}
		var buf bytes.Buffer
		if err := WriteRepro(&buf, &s); err != nil {
			t.Fatalf("WriteRepro: %v", err)
		}
		got, err := ParseRepro(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ParseRepro(index %d): %v\n%s", i, err, buf.String())
		}
		// Events: nil and empty both serialize to no lines; normalize.
		want := s
		if len(want.Events) == 0 {
			want.Events = nil
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("round-trip mismatch (index %d):\n got %+v\nwant %+v", i, *got, want)
		}
		// Canonical: re-serializing the parse is byte-identical.
		var buf2 bytes.Buffer
		if err := WriteRepro(&buf2, got); err != nil {
			t.Fatalf("WriteRepro(reparse): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("repro not canonical (index %d):\n%s\nvs\n%s", i, buf.String(), buf2.String())
		}
	}
}

func TestSaveLoadRepro(t *testing.T) {
	s := Generate(5, 17)
	path := filepath.Join(t.TempDir(), "x.repro")
	if err := SaveRepro(path, &s); err != nil {
		t.Fatalf("SaveRepro: %v", err)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatalf("LoadRepro: %v", err)
	}
	if got.String() != s.String() {
		t.Fatalf("loaded %s, want %s", got.String(), s.String())
	}
}

func TestParseReproErrors(t *testing.T) {
	valid := func(extra string) string {
		s := Generate(1, 0)
		var buf bytes.Buffer
		WriteRepro(&buf, &s)
		return buf.String() + extra
	}
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty repro"},
		{"no header", "seed 1\n", "not a hibchaos repro"},
		{"unknown key", valid("frobnicate 3\n"), `unknown key "frobnicate"`},
		{"bad integer", valid("levels many\n"), "bad integer"},
		{"bad workers", valid("workers many\n"), "workers: bad integer"},
		{"nan duration", valid("duration NaN\n"), "bad number"},
		{"inf rate", valid("rate +Inf\n"), "bad number"},
		{"bad bool", valid("retry.auto-rebuild maybe\n"), "want true or false"},
		{"bad fault line", valid("fault 10,0,meteor\n"), "fault:"},
		{"event disk out of range", valid("fault 10,9999,failstop\n"), "outside"},
		{"bad scheme", valid("scheme warp\n"), "unknown scheme"},
		{"raid1 odd disks", valid("raid raid1\ngroup-disks 3\n"), "raid"},
		{"negative duration", valid("duration -5\n"), "duration must be positive"},
		{"overlong line", "# hibchaos repro v1\nseed " + strings.Repeat("9", maxReproLine+10) + "\n", "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseRepro(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ParseRepro accepted %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseReproLineNumbers(t *testing.T) {
	in := "# hibchaos repro v1\nseed 1\nlevels banana\n"
	_, err := ParseRepro(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line 3 in error, got %v", err)
	}
}

// Repros and stored job artifacts written while scenarios had an engine
// width carry a "workers N" line. It must still parse, change nothing, and
// never be written again.
func TestParseReproIgnoresWorkers(t *testing.T) {
	s := Scenario{
		Seed: 5, Duration: 60,
		Scheme: "tpm", Family: "enterprise", Levels: 2,
		Groups: 2, GroupDisks: 3, RAID: "raid5",
		Workload: "oltp", Rate: 10,
	}
	var buf bytes.Buffer
	if err := WriteRepro(&buf, &s); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Contains(text, "workers") {
		t.Fatalf("WriteRepro emitted a workers line:\n%s", text)
	}
	plain, err := ParseRepro(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	old, err := ParseRepro(strings.NewReader(strings.Replace(text, "epoch-frac", "workers 8\nepoch-frac", 1)))
	if err != nil {
		t.Fatalf("repro with a workers line: %v", err)
	}
	if !reflect.DeepEqual(plain, old) {
		t.Fatalf("workers line changed the scenario:\n got %+v\nwant %+v", *old, *plain)
	}
	for _, sc := range []*Scenario{plain, old} {
		if fail := Execute(sc); fail != nil {
			t.Fatalf("Execute: %v", fail)
		}
	}
	resP, _, fail := plain.runOnce(false)
	if fail != nil {
		t.Fatal(fail)
	}
	resO, _, fail := old.runOnce(false)
	if fail != nil {
		t.Fatal(fail)
	}
	if fp, fo := fingerprintOf(resP), fingerprintOf(resO); fp != fo {
		t.Fatalf("fingerprints differ: %s", fp.diff(fo))
	}
}
