package benchstat

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected cut points were printed by Python's
// statistics.quantiles(data, n=...), the definition the spread check uses.
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		data      []float64
		quartiles []float64
		deciles3  []float64
		median    float64
	}{
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}, []float64{0.3, 0.6, 0.9}, 1.5},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}, []float64{0.4, 0.8, 1.2}, 2},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}, []float64{1.1, 2.2, 3.3}, 5.5},
		{[]float64{0.5, 7.25, 3, 3, 11, 2.5, 9.75}, []float64{2.5, 3, 9.75}, []float64{0.1, 1.7, 2.7}, 3},
		{[]float64{10, 20, 30, 40}, []float64{12.5, 25, 37.5}, []float64{5, 10, 15}, 25},
	}
	for _, c := range cases {
		q, err := Quantiles(c.data, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range q {
			if !near(q[i], c.quartiles[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, q, c.quartiles)
				break
			}
		}
		d, err := Quantiles(c.data, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.deciles3 {
			if !near(d[i], c.deciles3[i]) {
				t.Errorf("deciles(%v)[:3] = %v, want %v", c.data, d[:3], c.deciles3)
				break
			}
		}
		if m := Median(c.data); !near(m, c.median) {
			t.Errorf("median(%v) = %v, want %v", c.data, m, c.median)
		}
	}
}

func TestQuantilesRejectsShortInput(t *testing.T) {
	if _, err := Quantiles([]float64{1}, 4); err == nil {
		t.Error("one value: want an error")
	}
	if _, err := Quantiles([]float64{1, 2}, 0); err == nil {
		t.Error("n=0: want an error")
	}
}

func TestQuantilesDoesNotReorderInput(t *testing.T) {
	data := []float64{3, 1, 2}
	if _, err := Quantiles(data, 4); err != nil {
		t.Fatal(err)
	}
	Median(data)
	Percentile(data, 50)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Errorf("input reordered: %v", data)
	}
}

func TestPercentile(t *testing.T) {
	data := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {95, 4.8}, {25, 2}, {10, 1.4},
	} {
		if got := Percentile(data, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single value p95 = %v", got)
	}
}

func TestSpreadOf(t *testing.T) {
	sp, err := SpreadOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !near(sp.Median, 5.5) || !near(sp.Q1, 2.75) || !near(sp.Q3, 8.25) || !near(sp.Frac, 1) {
		t.Errorf("spread = %+v", sp)
	}
	same, err := SpreadOf([]float64{4, 4, 4})
	if err != nil || same.Frac != 0 {
		t.Errorf("constant values: spread %+v err %v", same, err)
	}
}

func TestTally(t *testing.T) {
	var a Tally
	if a.OKFrac() != 0 {
		t.Error("empty tally must report 0")
	}
	for _, ok := range []bool{true, true, false, true} {
		a.Add(ok)
	}
	if a.Attempted != 4 || a.Failed != 1 || a.OKFrac() != 0.75 {
		t.Errorf("tally = %+v ok %v", a, a.OKFrac())
	}
	b := Tally{Attempted: 6, Failed: 0}
	a.Merge(b)
	if a.Attempted != 10 || a.Failed != 1 || a.OKFrac() != 0.9 {
		t.Errorf("merged tally = %+v ok %v", a, a.OKFrac())
	}
}

func TestCatalogueNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range defs {
			if !ValidName(d.Name) {
				t.Errorf("bad metric name %q", d.Name)
			}
			if !ValidUnit(d.Unit) {
				t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("metric %s listed twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "ä", string(make([]byte, 65))} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

func TestBuildChecksCatalogue(t *testing.T) {
	defs := []Def{{"a", "s"}, {"b", "ms"}}
	ok := Tally{Attempted: 3, Failed: 1}
	r, err := Build(defs, map[string]float64{"a": 1, "b": 2}, ok, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["b"] != (Metric{2, "ms"}) || r.Attempted != 3 || r.Failed != 1 || !r.Correct {
		t.Errorf("result = %+v", r)
	}
	if _, err := Build(defs, map[string]float64{"a": 1}, ok, true); err == nil {
		t.Error("missing metric: want an error")
	}
	if _, err := Build(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, ok, true); err == nil {
		t.Error("extra metric: want an error")
	}
	if _, err := Build(defs, map[string]float64{"a": 1, "b": math.NaN()}, ok, true); err == nil {
		t.Error("NaN metric: want an error")
	}
	if _, err := Build(defs, map[string]float64{"a": 1, "b": 2}, Tally{}, true); err == nil {
		t.Error("nothing attempted: want an error")
	}
}
