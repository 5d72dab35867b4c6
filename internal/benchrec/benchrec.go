// Package benchrec records the repo's performance trajectory: it runs the
// event-engine microbench kernels and the reference end-to-end experiment
// suite in-process, and serializes the numbers as one canonical
// BENCH_NNNN.json per PR (schema documented in EXPERIMENTS.md). The smoke
// comparison is the CI gate: allocations on the event hot path or a
// beyond-tolerance ns/event regression against the committed baseline
// fails the build, while honest run-to-run timing noise does not.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"hibernator/internal/experiments"
	"hibernator/internal/simevent"
)

// Schema is the format tag every record carries; bump it when fields
// change meaning, never silently.
const Schema = "hibernator-bench/1"

// Record is one BENCH_NNNN.json: the engine kernels, the end-to-end
// reference run, and enough host metadata to judge cross-machine numbers.
type Record struct {
	Schema string `json:"schema"`
	// PR is the pull-request ordinal the record belongs to (the NNNN in
	// the filename).
	PR int `json:"pr"`

	Engine EngineBench `json:"engine"`
	E2E    E2EBench    `json:"e2e"`
	Host   Host        `json:"host"`
}

// EngineBench is the microbench section: per-event costs of the calendar
// queue's hot paths, measured via testing.Benchmark on this host.
type EngineBench struct {
	// ScheduleFireNs is ns per schedule+fire pair against a ~1000-deep
	// calendar — the cost every simulated I/O pays at least once.
	ScheduleFireNs float64 `json:"schedule_fire_ns_per_event"`
	// ScheduleCancelNs is ns per schedule+cancel pair (in-flight aborts).
	ScheduleCancelNs float64 `json:"schedule_cancel_ns_per_event"`
	// ChurnNs is ns per event through 256-burst schedule/drain cycles.
	ChurnNs float64 `json:"churn_ns_per_event"`
	// Depth10kNs is ns per schedule+fire with 10k events pending — the
	// regime where the calendar queue must beat a binary heap by >=2x.
	Depth10kNs float64 `json:"depth10k_ns_per_event"`
	// AllocsPerEvent is the worst allocs/op across all kernels; the
	// engine's contract is zero.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// EventsPerSec is 1e9/ScheduleFireNs, the headline throughput.
	EventsPerSec float64 `json:"events_per_sec"`
}

// E2EBench is the end-to-end section: the reference experiment suite run
// in-process (the library path `hibexp -run all` drives).
type E2EBench struct {
	// Command names the CLI equivalent of what was measured.
	Command string `json:"command"`
	// Scale is the duration scale factor the suite ran at.
	Scale float64 `json:"scale"`
	// WallSeconds is the wall-clock time of the whole suite.
	WallSeconds float64 `json:"wall_seconds"`
}

// Host identifies the machine the numbers came from.
type Host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

// kernels are the microbench bodies. They mirror the benchmarks in
// internal/simevent/bench_test.go (test files cannot be imported, so the
// recorder carries its own copies; keep them in sync).
func benchScheduleFire(b *testing.B) {
	e := simevent.New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.Schedule(float64(i)+1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i)+1001, fn)
		e.Step()
	}
}

func benchScheduleCancel(b *testing.B) {
	e := simevent.New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.Schedule(float64(i)+1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.Schedule(2000, fn))
	}
}

func benchChurn(b *testing.B) {
	e := simevent.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < 256; j++ {
			e.Schedule(float64((j*37)%256)+1, fn)
		}
		e.Run(base + 257)
	}
}

func benchDepth10k(b *testing.B) {
	e := simevent.New()
	fn := func() {}
	for i := 0; i < 10000; i++ {
		e.Schedule(1+float64(i%97)/97*100, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(100, fn)
		e.Step()
	}
}

// perOp converts a benchmark result to (ns/op, allocs/op) as floats.
func perOp(r testing.BenchmarkResult) (ns, allocs float64) {
	if r.N == 0 {
		return 0, 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.AllocsPerOp())
}

// churnEvents is how many events one churn iteration fires.
const churnEvents = 256

// CollectEngine runs the microbench kernels and fills the engine section.
func CollectEngine() EngineBench {
	var e EngineBench
	var worst float64
	run := func(f func(*testing.B), into *float64, perIter float64) {
		ns, allocs := perOp(testing.Benchmark(f))
		*into = ns / perIter
		if a := allocs / perIter; a > worst {
			worst = a
		}
	}
	run(benchScheduleFire, &e.ScheduleFireNs, 1)
	run(benchScheduleCancel, &e.ScheduleCancelNs, 1)
	run(benchChurn, &e.ChurnNs, churnEvents)
	run(benchDepth10k, &e.Depth10kNs, 1)
	e.AllocsPerEvent = worst
	if e.ScheduleFireNs > 0 {
		e.EventsPerSec = 1e9 / e.ScheduleFireNs
	}
	return e
}

// CollectE2E times the full experiment suite in-process at the given
// scale — the library path `hibexp -run all -scale <s>` drives — using
// wallSeconds measured by the caller (the recorder shells nothing out).
func CollectE2E(scale float64, wallSeconds float64) E2EBench {
	return E2EBench{
		Command:     fmt.Sprintf("hibexp -run all -scale %g", scale),
		Scale:       scale,
		WallSeconds: wallSeconds,
	}
}

// RunSuite executes every experiment at the given scale and returns any
// error; the caller times it. Output tables are discarded — only the work
// is wanted.
func RunSuite(scale float64) error {
	opts := experiments.Opts{Scale: scale, Seed: 1, Workers: 1}
	for _, e := range experiments.All() {
		if _, err := e.Run(opts); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// NewRecord assembles a record for the given PR ordinal.
func NewRecord(pr int, eng EngineBench, e2e E2EBench) *Record {
	return &Record{
		Schema: Schema,
		PR:     pr,
		Engine: eng,
		E2E:    e2e,
		Host: Host{
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
			GoVersion: runtime.Version(),
		},
	}
}

// Write serializes the record to path, pretty-printed and newline-
// terminated so the JSON diffs cleanly in review.
func (r *Record) Write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Load reads and validates a record from path.
func Load(path string) (*Record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// SmokeTolerance is the regression multiplier the smoke gate allows: a
// fresh measurement may be up to this many times the baseline before the
// gate fails. Single-run CI timing is noisy; 2x is signal.
const SmokeTolerance = 2.0

// Smoke compares a fresh engine measurement against a committed baseline
// and returns the first gate violation: any allocation on the event hot
// path, or a kernel slower than SmokeTolerance times the baseline.
func Smoke(fresh, baseline EngineBench) error {
	if fresh.AllocsPerEvent > 0 {
		return fmt.Errorf("allocs/event = %g, want 0", fresh.AllocsPerEvent)
	}
	type pair struct {
		name      string
		got, base float64
	}
	for _, p := range []pair{
		{"schedule_fire", fresh.ScheduleFireNs, baseline.ScheduleFireNs},
		{"schedule_cancel", fresh.ScheduleCancelNs, baseline.ScheduleCancelNs},
		{"churn", fresh.ChurnNs, baseline.ChurnNs},
		{"depth10k", fresh.Depth10kNs, baseline.Depth10kNs},
	} {
		if p.base > 0 && p.got > p.base*SmokeTolerance {
			return fmt.Errorf("%s: %.1f ns/event vs baseline %.1f (>%.0fx)",
				p.name, p.got, p.base, SmokeTolerance)
		}
	}
	return nil
}
