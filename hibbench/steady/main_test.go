package main

import (
	"path/filepath"
	"testing"

	"hibernator/hibbench/benchstat"
)

func result(correct bool, attempted, failed int, vals map[string]float64) *benchstat.Result {
	r := &benchstat.Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]benchstat.Metric{}}
	for k, v := range vals {
		r.Metrics[k] = benchstat.Metric{Value: v, Unit: "s"}
	}
	return r
}

func TestSummarizeSpreadsAndAccounting(t *testing.T) {
	defs := []bound{{Name: "a", Unit: "s", Bound: 0.5}, {Name: "b", Unit: "s"}}
	var outs []runOutcome
	for i, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		failed := 0
		if i == 5 {
			failed = 1
		}
		res := result(i != 3, 4, failed, map[string]float64{"a": v, "b": 2})
		outs = append(outs, runOutcome{seed: int64(i), res: res})
	}
	outs = append(outs, runOutcome{seed: 99}) // a run that printed nothing
	s, err := summarize(outs, defs)
	if err != nil {
		t.Fatal(err)
	}
	if s.runs != 11 || s.badRuns != 2 || s.attempted != 40 || s.failed != 1 {
		t.Errorf("accounting = %+v", s)
	}
	a := s.rows[0]
	if a.n != 10 || a.spread.Median != 5.5 || a.spread.Q1 != 2.75 || a.spread.Q3 != 8.25 || a.spread.Frac != 1 || a.ofBound != 2 {
		t.Errorf("row a = %+v", a)
	}
	if a.verdict() != "TOO-WIDE" {
		t.Errorf("verdict = %s", a.verdict())
	}
	if b := s.rows[1]; b.spread.Frac != 0 || b.verdict() != "-" {
		t.Errorf("row b = %+v", b)
	}
	for _, c := range []struct {
		ofBound float64
		want    string
	}{{0.2, "steady"}, {0.5, "wide"}, {1, "wide"}, {1.01, "TOO-WIDE"}} {
		if got := (row{bound: 0.1, ofBound: c.ofBound}).verdict(); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.ofBound, got, c.want)
		}
	}
}

func TestSummarizeNeedsTwoValues(t *testing.T) {
	defs := []bound{{Name: "a", Bound: 0.1}}
	outs := []runOutcome{{res: result(true, 1, 0, map[string]float64{"a": 1})}}
	if _, err := summarize(outs, defs); err == nil {
		t.Error("one value: want an error")
	}
}

func TestLastLine(t *testing.T) {
	out := []byte("# header\nname 1 s\n{\"correct\":true}\n\n")
	if got := string(lastLine(out)); got != `{"correct":true}` {
		t.Errorf("last line = %q", got)
	}
	if lastLine(nil) != nil {
		t.Error("empty output: want nil")
	}
}

// BENCHMARK.json must stay within the limits its readers enforce.
func TestBenchmarkJSONNames(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	seen := map[string]bool{}
	for _, w := range sp.Workloads {
		if !benchstat.ValidName(w.Name) || seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q (why %d chars)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if !benchstat.ValidName(m.Name) || !benchstat.ValidUnit(m.Unit) || seen[m.Name] {
			t.Errorf("end-to-end metric %q unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
		seen[m.Name] = true
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range sp.PerLayer {
		if !benchstat.ValidName(m.Name) || !benchstat.ValidUnit(m.Unit) || seen[m.Name] ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %q unit %q better %q", m.Name, m.Unit, m.Better)
		}
		seen[m.Name] = true
	}
}

func TestCompareAgainstBound(t *testing.T) {
	defs := []bound{
		{Name: "rate", Better: "higher", Bound: 0.25},
		{Name: "lat", Better: "lower", Bound: 0.25},
		{Name: "count", Better: "lower", Bound: 0.05},
		{Name: "free"},
	}
	mk := func(name string, median, b float64) row {
		return row{name: name, bound: b, spread: benchstat.Spread{Median: median}}
	}
	rows := []row{mk("rate", 70, 0.25), mk("lat", 129, 0.25), mk("count", 104, 0.05), mk("free", 5, 0), mk("new", 1, 0.1)}
	base := map[string]float64{"rate": 100, "lat": 100, "count": 100, "free": 1}
	got := compare(base, rows, defs)
	if len(got) != 3 {
		t.Fatalf("compare = %+v, want rate, lat and count only", got)
	}
	want := []struct {
		worse  float64
		beyond bool
	}{{0.30, true}, {0.29, true}, {0.04, false}}
	for i, w := range want {
		if d := got[i].worse - w.worse; d > 1e-9 || d < -1e-9 || got[i].beyondBound != w.beyond {
			t.Errorf("%s: %+v, want worse %.2f beyond %t", got[i].name, got[i], w.worse, w.beyond)
		}
	}
	// Better by any amount is never beyond the bound.
	if sh := compare(map[string]float64{"rate": 50}, rows[:1], defs); sh[0].worse >= 0 || sh[0].beyondBound {
		t.Errorf("faster rate = %+v", sh[0])
	}
}
