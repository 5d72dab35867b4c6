package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hibernator/internal/experiments"
)

// The CLI test re-execs this test binary as hibexp (TestMain dispatches
// on the env var), so the subprocess runs exactly the code under test.
const runMainEnv = "HIBEXP_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runHibexp runs hibexp with args and returns stdout, stderr and the
// exit code.
func runHibexp(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("hibexp %v: %v", args, err)
		}
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name               string
		scale, sampleEvery float64
		par                int
		ok                 bool
	}{
		{"defaults", 1, 0, 0, true},
		{"small scale", 0.05, 0.5, 8, true},
		{"min scale", experiments.MinScale, 0, 0, true},
		{"below min scale", 0.01, 0, 0, false},
		{"zero scale", 0, 0, 0, false},
		{"negative scale", -1, 0, 0, false},
		{"nan scale", math.NaN(), 0, 0, false},
		{"inf scale", math.Inf(1), 0, 0, false},
		{"negative par", 1, 0, -1, false},
		{"negative sample-every", 1, -0.5, 0, false},
		{"nan sample-every", 1, math.NaN(), 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.scale, tc.sampleEvery, tc.par)
			if (err == nil) != tc.ok {
				t.Fatalf("validateFlags(%g, %g, %d) = %v, want ok=%t", tc.scale, tc.sampleEvery, tc.par, err, tc.ok)
			}
		})
	}
}

// TestCLI pins hibexp's command-line surface: bad input is one stderr
// line and exit 2 before anything runs, and a good run prints each
// table and writes its CSV exactly as the report package renders it.
func TestCLI(t *testing.T) {
	for _, args := range [][]string{
		{"-journal", "run.jsonl"},
		{"-resume"},
		{"-retries", "1"},
		{"-max-wall", "1s"},
		{"-max-events", "10"},
		{"-wd-stall", "1s"},
		{"-scale", "0.01"},
	} {
		stdout, stderr, code := runHibexp(t, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("hibexp %v: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", args, code, stdout, stderr)
		}
	}

	dir := t.TempDir()
	stdout, stderr, code := runHibexp(t, "-run", "T1,T2", "-scale", "0.02", "-csv", dir)
	if code != 0 {
		t.Fatalf("hibexp -run T1,T2: exit %d\nstderr: %s", code, stderr)
	}
	var want bytes.Buffer
	for _, id := range []string{"T1", "T2"} {
		e, _ := experiments.ByID(id)
		tables, err := e.Run(experiments.Opts{Scale: 0.02, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			if err := tb.Fprint(&want); err != nil {
				t.Fatal(err)
			}
			want.WriteString("\n")
			var csv bytes.Buffer
			if err := tb.CSV(&csv); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, tb.ID+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, csv.Bytes()) {
				t.Errorf("%s.csv differs from the table's CSV rendering:\n%s\nvs\n%s", tb.ID, got, csv.Bytes())
			}
		}
	}
	if stdout != want.String() {
		t.Errorf("stdout differs from the tables' rendering:\n%s\nvs\n%s", stdout, want.String())
	}
}
