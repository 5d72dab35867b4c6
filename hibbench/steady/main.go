// Command steady runs one benchmark workload K times, each with another
// seed, and prints per metric the median, the quartiles and the spread
// (interquartile distance over the median) as a share of the metric's
// bound in BENCHMARK.json. Run it from the benchmark's module:
//
//	cd hibbench && go run ./steady -workload oltp-hib -k 10
//
// A spread under a third of the bound is steady; one over the bound
// would make a regression of the bound's size invisible. With -save the
// pass's medians go to a file; a later pass with -base compares its
// medians with them against each metric's bound, which is how two passes
// of the same code must agree:
//
//	go run ./steady -workload oltp-hib -k 10 -save /tmp/a.json
//	go run ./steady -workload oltp-hib -k 10 -seed0 101 -base /tmp/a.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"hibernator/hibbench/benchstat"
)

// spec is the part of BENCHMARK.json this command reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runOutcome is one benchmark run: its result, or why there is none.
type runOutcome struct {
	seed int64
	res  *benchstat.Result
	err  error
}

// row is one metric's summary over the runs that produced it.
type row struct {
	name, unit string
	n          int
	spread     benchstat.Spread
	bound      float64 // 0 when the metric has no bound
	ofBound    float64 // spread as a share of the bound
}

// summary is a whole steadiness pass.
type summary struct {
	runs, badRuns     int // runs made; runs with no result or correct=false
	attempted, failed int // operations, summed over the runs with a result
	rows              []row
}

// summarize folds the runs into per-metric rows, in the order defs lists
// the metrics. A run without a result, or one reporting correct=false,
// counts as bad; its metrics are still summarized when present.
func summarize(outs []runOutcome, defs []bound) (summary, error) {
	s := summary{runs: len(outs)}
	values := map[string][]float64{}
	for _, o := range outs {
		if o.res == nil {
			s.badRuns++
			continue
		}
		if !o.res.Correct {
			s.badRuns++
		}
		s.attempted += o.res.Attempted
		s.failed += o.res.Failed
		for name, m := range o.res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	for _, d := range defs {
		v := values[d.Name]
		if len(v) < 2 {
			return s, fmt.Errorf("metric %s: %d values, need at least 2", d.Name, len(v))
		}
		sp, err := benchstat.SpreadOf(v)
		if err != nil {
			return s, fmt.Errorf("metric %s: %w", d.Name, err)
		}
		r := row{name: d.Name, unit: d.Unit, n: len(v), spread: sp, bound: d.Bound}
		if d.Bound > 0 {
			r.ofBound = sp.Frac / d.Bound
		}
		s.rows = append(s.rows, r)
	}
	return s, nil
}

// verdict classes a row: steady under a third of its bound, wide up to
// the bound, too wide beyond it.
func (r row) verdict() string {
	switch {
	case r.bound == 0:
		return "-"
	case r.ofBound <= 1.0/3:
		return "steady"
	case r.ofBound <= 1:
		return "wide"
	}
	return "TOO-WIDE"
}

func (s summary) print(w io.Writer) {
	fmt.Fprintf(w, "runs=%d bad_runs=%d attempted=%d failed=%d\n", s.runs, s.badRuns, s.attempted, s.failed)
	fmt.Fprintf(w, "%-28s %4s %14s %14s %14s %8s %6s %8s %s\n",
		"metric", "n", "median", "q1", "q3", "spread", "bound", "of_bound", "verdict")
	for _, r := range s.rows {
		fmt.Fprintf(w, "%-28s %4d %14.6g %14.6g %14.6g %8.4f %6.3g %8.3f %s\n",
			r.name, r.n, r.spread.Median, r.spread.Q1, r.spread.Q3, r.spread.Frac, r.bound, r.ofBound, r.verdict())
	}
}

// shift is one metric's median against the same metric's median in an
// earlier pass of the same workload.
type shift struct {
	name        string
	base, now   float64
	worse       float64 // relative change toward worse; negative when better
	bound       float64
	beyondBound bool
}

// compare sets each bounded metric's median against base, the medians of
// an earlier pass, the way a later change is judged: the metric may not
// be worse than base by more than its bound. Metrics without a bound, or
// missing from base, are skipped.
func compare(base map[string]float64, rows []row, defs []bound) []shift {
	better := map[string]string{}
	for _, d := range defs {
		better[d.Name] = d.Better
	}
	var out []shift
	for _, r := range rows {
		b, ok := base[r.name]
		if !ok || r.bound == 0 || b == 0 {
			continue
		}
		sh := shift{name: r.name, base: b, now: r.spread.Median, bound: r.bound}
		sh.worse = (sh.now - b) / math.Abs(b)
		if better[r.name] == "higher" {
			sh.worse = -sh.worse
		}
		sh.beyondBound = sh.worse > r.bound
		out = append(out, sh)
	}
	return out
}

func printShifts(w io.Writer, shifts []shift) {
	fmt.Fprintf(w, "against the base pass:\n%-28s %14s %14s %8s %6s %s\n", "metric", "base_median", "median", "worse_by", "bound", "verdict")
	for _, sh := range shifts {
		v := "ok"
		if sh.beyondBound {
			v = "WORSE"
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %8.4f %6.3g %s\n", sh.name, sh.base, sh.now, sh.worse, sh.bound, v)
	}
}

// medians returns each row's median, the record -save writes and -base
// reads.
func (s summary) medians() map[string]float64 {
	m := map[string]float64{}
	for _, r := range s.rows {
		m[r.name] = r.spread.Median
	}
	return m
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}

func runOnce(root string, sp *spec, workload string, seed int64, seconds, trace int, stderr io.Writer) runOutcome {
	args := append([]string(nil), sp.Command[1:]...)
	args = append(args, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = root
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return runOutcome{seed: seed, err: err}
	}
	if stderr != io.Discard {
		for _, l := range bytes.Split(out, []byte("\n")) {
			if bytes.HasPrefix(l, []byte("#")) {
				fmt.Fprintf(stderr, "seed %d: %s\n", seed, l)
			}
		}
	}
	line := lastLine(out)
	if line == nil {
		return runOutcome{seed: seed, err: errors.New("no output")}
	}
	res, err := benchstat.Parse(line)
	return runOutcome{seed: seed, res: res, err: err}
}

func main() {
	root := flag.String("root", "..", "repository root holding BENCHMARK.json")
	workload := flag.String("workload", "", "workload to run")
	k := flag.Int("k", 10, "number of runs, each with another seed")
	seed0 := flag.Int64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := flag.Int("seconds", 0, "timed seconds per run (0 = run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	verbose := flag.Bool("v", false, "pass the benchmark's standard error and its comment lines through")
	save := flag.String("save", "", "write the medians of this pass to this JSON file")
	basePath := flag.String("base", "", "compare the medians with an earlier pass saved by -save; exit 1 if one is worse by more than its bound")
	flag.Parse()
	sp, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		os.Exit(1)
	}
	if *k < 2 || *workload == "" || len(sp.Command) == 0 {
		fmt.Fprintln(os.Stderr, "steady: need -workload, -k >= 2 and a command in BENCHMARK.json")
		os.Exit(2)
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	defs := sp.EndToEnd
	if *trace == 1 {
		defs = sp.PerLayer
	}
	var stderr io.Writer = io.Discard
	if *verbose {
		stderr = os.Stderr
	}
	var outs []runOutcome
	for i := 0; i < *k; i++ {
		o := runOnce(*root, sp, *workload, *seed0+int64(i), *seconds, *trace, stderr)
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "steady: seed %d: %v\n", o.seed, o.err)
		} else {
			fmt.Fprintf(os.Stderr, "steady: seed %d done\n", o.seed)
		}
		outs = append(outs, o)
	}
	s, err := summarize(outs, defs)
	fmt.Printf("workload=%s k=%d seconds=%d trace=%d\n", *workload, *k, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		os.Exit(1)
	}
	s.print(os.Stdout)
	failed := s.badRuns > 0
	if *save != "" {
		b, _ := json.MarshalIndent(s.medians(), "", "  ")
		if err := os.WriteFile(*save, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			failed = true
		}
	}
	if *basePath != "" {
		var base map[string]float64
		b, err := os.ReadFile(*basePath)
		if err == nil {
			err = json.Unmarshal(b, &base)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			os.Exit(1)
		}
		shifts := compare(base, s.rows, defs)
		printShifts(os.Stdout, shifts)
		for _, sh := range shifts {
			failed = failed || sh.beyondBound
		}
	}
	if failed {
		os.Exit(1)
	}
}
