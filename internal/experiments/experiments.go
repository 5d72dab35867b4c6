// Package experiments reconstructs the paper's evaluation: one runnable
// experiment per table/figure in DESIGN.md's index. Each experiment
// returns report tables; cmd/hibexp prints them and bench_test.go wraps
// them as benchmarks.
//
// Experiments are deterministic for a given Opts: every sim.Run is an
// independent, seed-deterministic single-threaded simulation, so the
// fan-outs below (scheme bake-offs, sweep points) run concurrently on a
// bounded pool without changing a single output byte — Opts.Workers only
// changes wall-clock time. Expensive multi-scheme bake-offs are memoized
// per (workload, scale, seed) with singleflight semantics so that e.g. F1
// (energy) and F2 (response time) share one set of simulation runs even
// when they themselves run concurrently.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"hibernator/internal/report"
)

// Opts parameterizes a run.
type Opts struct {
	// Scale multiplies simulated durations (1.0 = the default multi-hour
	// runs; benches use smaller). Raised to MinScale when below it.
	Scale float64
	// Seed drives every generator in the experiment.
	Seed int64
	// Workers bounds the concurrent simulation runs inside one experiment
	// (bake-off schemes, sweep points). 0 = GOMAXPROCS, 1 = sequential.
	// Results are identical for any value; only wall clock changes.
	Workers int
	// Log, if non-nil, receives progress lines.
	Log io.Writer
	// MetricsDir, when non-empty, attaches an observability recorder to
	// every instrumented simulation run and writes one pair of files per
	// run into the directory: <run>.metrics.jsonl and <run>.trace.jsonl
	// (see OBSERVABILITY.md for the schema). The directory must exist.
	// Recording does not change any table output byte.
	MetricsDir string
	// SampleEvery overrides the metrics sampling interval in simulated
	// seconds (0 = each run's default, its response window). Only
	// meaningful with MetricsDir.
	SampleEvery float64
	// Check arms an invariant checker (internal/invariant) on every
	// simulation run. Violations accumulate in the process-wide tally read
	// by CheckViolations. Checking does not change any table output byte.
	Check bool
}

// MinScale is the smallest Opts.Scale an experiment runs at; norm raises
// anything between 0 and MinScale to it, and the hibexp and benchrec
// CLIs reject such a value up front instead.
const MinScale = 0.02

func (o *Opts) norm() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Scale < MinScale {
		o.Scale = MinScale
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// logMu serializes progress lines: concurrent sweep points may log from
// worker goroutines, and arbitrary io.Writers are not thread-safe.
var logMu sync.Mutex

func (o Opts) logf(format string, args ...any) {
	if o.Log != nil {
		logMu.Lock()
		fmt.Fprintf(o.Log, format+"\n", args...)
		logMu.Unlock()
	}
}

// Experiment is one reconstructed table or figure.
type Experiment struct {
	ID           string
	Title        string
	Reconstructs string // what in the paper this regenerates
	Run          func(o Opts) ([]*report.Table, error)
}

var (
	regMu    sync.Mutex
	registry []Experiment

	// The sorted view and ID index are built once on first use; every
	// registration happens in package init, well before that.
	regOnce  sync.Once
	sorted   []Experiment
	byID     map[string]int
	regFixed bool
)

func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if regFixed {
		panic("experiments: register after first All/ByID call")
	}
	registry = append(registry, e)
}

func buildIndex() {
	regOnce.Do(func() {
		regMu.Lock()
		defer regMu.Unlock()
		regFixed = true
		sorted = append([]Experiment(nil), registry...)
		sort.Slice(sorted, func(i, j int) bool { return idLess(sorted[i].ID, sorted[j].ID) })
		byID = make(map[string]int, len(sorted))
		for i, e := range sorted {
			byID[e.ID] = i
		}
	})
}

// All returns every experiment in ID order.
func All() []Experiment {
	buildIndex()
	return append([]Experiment(nil), sorted...)
}

// idLess orders T1 < T2 < ... < F1 < F2 < ... < F11 < T3-style summary IDs
// numerically within their prefix.
func idLess(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		// Tables first, then figures, then extensions, then anything else.
		rank := map[string]int{"T": 0, "F": 1, "X": 2}
		ra, oka := rank[pa]
		rb, okb := rank[pb]
		switch {
		case oka && okb:
			return ra < rb
		case oka:
			return true
		case okb:
			return false
		default:
			return pa < pb
		}
	}
	return na < nb
}

func splitID(id string) (prefix string, n int) {
	for i := 0; i < len(id); i++ {
		if id[i] >= '0' && id[i] <= '9' {
			fmt.Sscanf(id[i:], "%d", &n)
			return id[:i], n
		}
	}
	return id, 0
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	buildIndex()
	i, ok := byID[id]
	if !ok {
		return Experiment{}, false
	}
	return sorted[i], true
}
