package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite cmd/hibsim/testdata/golden/*.out from the current binary")

// TestGoldenOutputs pins hibsim's report for every scheme on both
// synthetic workloads and for each flag that reaches the run: trace
// replay, fault schedules (a comment-only schedule included: it still
// arms the retry policy and prints the fault summary), ambient rates,
// the SPTF scheduler, the injected failure, an explicit epoch, levels
// and family outside the repro bounds, goals, no cache, and the
// metrics, trace and snapshot files (by size and SHA-256). Wall-clock
// time is stripped and the temp directory is printed as $DIR. Rewrite
// the files with `go test ./cmd/hibsim -run TestGoldenOutputs -update`
// only for a change that moves results on purpose.
func TestGoldenOutputs(t *testing.T) {
	type tc struct {
		name  string
		args  []string
		files []string // output files under $DIR whose bytes are pinned
	}
	var cases []tc
	for _, scheme := range []string{"base", "tpm", "drpm", "pdc", "maid", "hibernator"} {
		for _, wl := range []string{"oltp", "cello"} {
			cases = append(cases, tc{name: scheme + "-" + wl,
				args: []string{"-scheme", scheme, "-workload", wl, "-duration", "600", "-goal", "15ms"}})
		}
	}
	cases = append(cases,
		tc{name: "trace", args: []string{"-scheme", "tpm", "-trace", "testdata/trace.csv", "-duration", "60"}},
		tc{name: "faults", args: []string{"-faults", "testdata/faults.csv", "-duration", "600", "-goal", "12ms", "-check"}},
		tc{name: "faults-empty", args: []string{"-faults", "testdata/faults-empty.csv", "-duration", "30"}},
		tc{name: "fault-rates", args: []string{"-scheme", "drpm", "-fault-rate", "0.002", "-spin-fail-rate", "0.01", "-duration", "600"}},
		tc{name: "sptf", args: []string{"-sched", "sptf", "-duration", "600"}},
		tc{name: "fail-at", args: []string{"-scheme", "tpm", "-fail-at", "100", "-duration", "600", "-groups", "2"}},
		tc{name: "epoch57", args: []string{"-duration", "3600", "-epoch", "57", "-rate", "20",
			"-snapshot-out", "$DIR/s.snap"}, files: []string{"s.snap"}},
		tc{name: "levels12", args: []string{"-levels", "12", "-duration", "600"}},
		tc{name: "disk-SFF", args: []string{"-disk", "SFF", "-scheme", "pdc", "-duration", "600"}},
		// 8.4ms is a goal whose seconds do not survive a trip through
		// milliseconds (8.4e-3*1000/1000 is one ulp off); the snapshot's
		// config.respgoal pins the exact value.
		tc{name: "goal-odd", args: []string{"-goal", "8.4ms", "-duration", "600", "-workload", "cello",
			"-snapshot-out", "$DIR/s.snap"}, files: []string{"s.snap"}},
		tc{name: "cache0", args: []string{"-cache-mb", "0", "-duration", "600", "-scheme", "maid"}},
		tc{name: "uppercase", args: []string{"-scheme", "HIBERNATOR", "-workload", "OLTP", "-raid", "RAID1", "-duration", "600"}},
		tc{name: "raid0", args: []string{"-raid", "raid0", "-group-disks", "3", "-levels", "1", "-duration", "600"}},
		tc{name: "obs-files", args: []string{"-duration", "600", "-goal", "10ms", "-sample-every", "30",
			"-metrics-out", "$DIR/m.jsonl", "-trace-out", "$DIR/t.jsonl"}, files: []string{"m.jsonl", "t.jsonl"}},
		tc{name: "snapshot-file", args: []string{"-scheme", "pdc", "-duration", "600",
			"-snapshot-out", "$DIR/s.snap"}, files: []string{"s.snap"}},
	)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(c.args))
			for i, a := range c.args {
				args[i] = strings.ReplaceAll(a, "$DIR", dir)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "hibsim %s\n", strings.Join(c.args, " "))
			b.WriteString(strings.ReplaceAll(resultLines(runHibsim(t, true, args...)), dir, "$DIR"))
			for _, f := range c.files {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "file %s %d bytes sha256 %x\n", f, len(data), sha256.Sum256(data))
			}
			golden := filepath.Join("testdata", "golden", c.name+".out")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Fatalf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}
