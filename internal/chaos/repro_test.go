package chaos

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hibernator/internal/scenario"
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
		if err := scenario.WriteRepro(&buf, &s); err != nil {
			t.Fatalf("WriteRepro: %v", err)
		}
		got, err := scenario.ParseRepro(bytes.NewReader(buf.Bytes()))
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
		if err := scenario.WriteRepro(&buf2, got); err != nil {
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
	if err := scenario.SaveRepro(path, &s); err != nil {
		t.Fatalf("SaveRepro: %v", err)
	}
	got, err := scenario.LoadRepro(path)
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
		scenario.WriteRepro(&buf, &s)
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
		{"overlong line", "# hibchaos repro v1\nseed " + strings.Repeat("9", (64<<10)+10) + "\n", "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.ParseRepro(strings.NewReader(tc.in))
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
	_, err := scenario.ParseRepro(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line 3 in error, got %v", err)
	}
}

// Repros and stored job artifacts written while scenarios had an engine
// width carry a "workers N" line. It must still parse, change nothing, and
// never be written again.
func TestParseReproIgnoresWorkers(t *testing.T) {
	s := scenario.Scenario{
		Seed: 5, Duration: 60,
		Scheme: "tpm", Family: "enterprise", Levels: 2,
		Groups: 2, GroupDisks: 3, RAID: "raid5",
		Workload: "oltp", Rate: 10,
	}
	var buf bytes.Buffer
	if err := scenario.WriteRepro(&buf, &s); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Contains(text, "workers") {
		t.Fatalf("WriteRepro emitted a workers line:\n%s", text)
	}
	plain, err := scenario.ParseRepro(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	old, err := scenario.ParseRepro(strings.NewReader(strings.Replace(text, "epoch-frac", "workers 8\nepoch-frac", 1)))
	if err != nil {
		t.Fatalf("repro with a workers line: %v", err)
	}
	if !reflect.DeepEqual(plain, old) {
		t.Fatalf("workers line changed the scenario:\n got %+v\nwant %+v", *old, *plain)
	}
	for _, sc := range []*scenario.Scenario{plain, old} {
		if fail := Execute(sc); fail != nil {
			t.Fatalf("Execute: %v", fail)
		}
	}
	resP, _, fail := runOnce(plain, false)
	if fail != nil {
		t.Fatal(fail)
	}
	resO, _, fail := runOnce(old, false)
	if fail != nil {
		t.Fatal(fail)
	}
	if fp, fo := fingerprintOf(resP), fingerprintOf(resO); fp != fo {
		t.Fatalf("fingerprints differ: %s", fp.diff(fo))
	}
}

// The checked-in repro files must rewrite to the same canonical bytes
// they did when the repro reader and writer were last changed on
// purpose: parse each file, write it back, and compare the SHA-256 of
// the output with the pinned one. (The files themselves are not
// canonical: they carry older comment lines and key order.)
func TestCheckedInReprosRewriteCanonically(t *testing.T) {
	want := map[string]string{
		"seed1-1911.repro": "b04543d85277d4a26206321da4952a604318cb381620fe3d195b65d49a726ec9",
		"seed1-2674.repro": "a62b31066ea75598d3731239b8d5499d84c3855a906bcdfd508bca28caf18b8e",
		"seed1-2948.repro": "69b77bf97b824a43631f3c1157a7e5b449d31e5b486533eb488418b6397fdf18",
	}
	files, err := filepath.Glob("testdata/repros/*.repro")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Fatalf("found %d repro files, want %d", len(files), len(want))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.ParseRepro(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var out bytes.Buffer
		if err := scenario.WriteRepro(&out, s); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want[filepath.Base(f)] {
			t.Fatalf("%s rewrites to sha256 %s, want %s:\n%s", f, got, want[filepath.Base(f)], out.Bytes())
		}
	}
}
