// Package benchstat holds what the benchmark command and the steadiness
// command share: the metric catalogue, the result record the benchmark
// prints as its last line, ok/fail accounting, and the order statistics
// (median, quartiles, percentiles) both of them report.
package benchstat

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Def names one metric and its unit.
type Def struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics every workload prints with tracing off, in
// print order. Host time unless the name starts with "sim_".
var EndToEnd = []Def{
	{"sim_req_per_s", "req/s"},
	{"allocs_per_req", "allocs/req"},
	{"bytes_per_req", "B/req"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"sim_energy_kj", "kJ"},
	{"sim_mean_resp_ms", "sim_ms"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
}

// PerLayer lists the metrics every workload prints from its traced run,
// grouped by the layer they describe.
var PerLayer = []Def{
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles_per_mreq", "cycles/Mreq"},
	{"trace.next_ns", "ns"},
	{"trace.share", "frac"},
	{"trace.overhead_frac", "frac"},
	{"simevent.events_per_req", "events/req"},
	{"simevent.ns_per_event", "ns"},
	{"cache.hit_frac", "frac"},
	{"cache.op_ns", "ns"},
	{"cache.allocs_per_op", "allocs/op"},
	{"raid.map_ns", "ns"},
	{"raid.allocs_per_map", "allocs/op"},
	{"raid.phys_per_req", "ios/req"},
	{"array.submit_ns", "ns"},
	{"array.allocs_per_submit", "allocs/op"},
	{"array.migrations", "count"},
	{"array.migrated_gib", "GiB"},
	{"disk.op_ns", "ns"},
	{"disk.allocs_per_op", "allocs/op"},
	{"disk.ops_per_req", "ops/req"},
	{"disk.bg_ops_frac", "frac"},
	{"disk.busy_frac", "frac"},
	{"disk.max_queue", "count"},
	{"disk.spin_ups", "count"},
	{"disk.level_shifts", "count"},
	{"cr.solve_ns", "ns"},
	{"cr.epochs", "count"},
	{"cr.share", "frac"},
	{"served.submit_ms", "ms"},
	{"served.stream_ms", "ms"},
	{"served.result_ms", "ms"},
	{"served.overhead_ms", "ms"},
	{"served.wal_bytes_per_job", "B/job"},
	{"served.state_bytes_per_job", "B/job"},
	{"served.replayed", "count"},
	{"served.recover_ms", "ms"},
	{"obs.stream_bytes_per_job", "B/job"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// ValidName reports whether s may name a metric or a workload: a letter
// or digit first, then at most 63 more letters, digits, '_', '.' or '-'.
func ValidName(s string) bool { return nameRE.MatchString(s) }

// ValidUnit reports whether s may be a metric's unit.
func ValidUnit(s string) bool { return unitRE.MatchString(s) }

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the record the benchmark prints as the last line of its
// standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Build checks that values holds exactly the metrics in defs, each a
// finite number, and pairs each with its unit.
func Build(defs []Def, values map[string]float64, t Tally, correct bool) (*Result, error) {
	r := &Result{Correct: correct, Attempted: t.Attempted, Failed: t.Failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the catalogue", name)
			}
		}
	}
	if r.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return r, nil
}

// Parse reads a result line.
func Parse(line []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	if r.Metrics == nil {
		return nil, fmt.Errorf("parse result: no metrics")
	}
	return &r, nil
}

// Tally counts attempted and failed operations. A refusal, an error and
// an output that fails its check all count as failed.
type Tally struct {
	Attempted int
	Failed    int
}

// Add records one attempt.
func (t *Tally) Add(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// Merge adds another tally's counts.
func (t *Tally) Merge(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

// OKFrac is the share of attempts that succeeded (0 when none were made).
func (t Tally) OKFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Attempted-t.Failed) / float64(t.Attempted)
}

func sorted(data []float64) []float64 {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value (the mean of the two middle values for
// an even count). It panics on empty input.
func Median(data []float64) float64 {
	if len(data) == 0 {
		panic("benchstat: median of no values")
	}
	s := sorted(data)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantiles returns the n-1 cut points that divide data into n groups of
// equal probability, computed exactly as Python's
// statistics.quantiles(data, n=n) does with its default "exclusive"
// method. It needs at least two values.
func Quantiles(data []float64, n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("benchstat: n must be at least 1")
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("benchstat: need at least two values, got %d", len(data))
	}
	s := sorted(data)
	ld := len(s)
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/float64(n))
	}
	return out, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation between closest ranks. It panics on empty input.
func Percentile(data []float64, p float64) float64 {
	if len(data) == 0 {
		panic("benchstat: percentile of no values")
	}
	s := sorted(data)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// Spread summarizes repeated measurements of one metric.
type Spread struct {
	Median, Q1, Q3 float64
	// Frac is the interquartile distance as a share of the median.
	Frac float64
}

// SpreadOf computes a metric's median, quartiles and relative spread.
func SpreadOf(values []float64) (Spread, error) {
	q, err := Quantiles(values, 4)
	if err != nil {
		return Spread{}, err
	}
	sp := Spread{Median: Median(values), Q1: q[0], Q3: q[2]}
	if sp.Median != 0 {
		sp.Frac = math.Abs(sp.Q3-sp.Q1) / math.Abs(sp.Median)
	} else if sp.Q3 != sp.Q1 {
		sp.Frac = math.Inf(1)
	}
	return sp, nil
}
