package hibernator_test

import (
	"runtime"
	"strings"
	"testing"

	"hibernator/internal/chaos"
	"hibernator/internal/experiments"
	"hibernator/internal/report"
	"hibernator/internal/sim"
)

// benchScale keeps each experiment benchmark to a few hundred simulated
// seconds per run; `go run ./cmd/hibexp` regenerates the full-scale
// results recorded in EXPERIMENTS.md.
const benchScale = 0.05

// One benchmark per reconstructed table/figure. Each iteration uses a
// seed unique to this benchmark AND iteration, so the memoized bake-offs
// can never short-circuit the work (a cache hit would make an iteration
// look instant, the framework would ramp b.N, and the later uncached
// iterations would stall the run for minutes).
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var space int64
	for _, c := range id {
		space = space*131 + int64(c)
	}
	b.ReportAllocs()
	var tables []*report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = e.Run(experiments.Opts{Scale: benchScale, Seed: space*1_000_000 + int64(i+1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	rows := 0
	for _, t := range tables {
		rows += len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkT1(b *testing.B)  { benchExperiment(b, "T1") }
func BenchmarkT2(b *testing.B)  { benchExperiment(b, "T2") }
func BenchmarkT3(b *testing.B)  { benchExperiment(b, "T3") }
func BenchmarkF1(b *testing.B)  { benchExperiment(b, "F1") }
func BenchmarkF2(b *testing.B)  { benchExperiment(b, "F2") }
func BenchmarkF3(b *testing.B)  { benchExperiment(b, "F3") }
func BenchmarkF4(b *testing.B)  { benchExperiment(b, "F4") }
func BenchmarkF5(b *testing.B)  { benchExperiment(b, "F5") }
func BenchmarkF6(b *testing.B)  { benchExperiment(b, "F6") }
func BenchmarkF7(b *testing.B)  { benchExperiment(b, "F7") }
func BenchmarkF8(b *testing.B)  { benchExperiment(b, "F8") }
func BenchmarkF9(b *testing.B)  { benchExperiment(b, "F9") }
func BenchmarkF10(b *testing.B) { benchExperiment(b, "F10") }
func BenchmarkF11(b *testing.B) { benchExperiment(b, "F11") }
func BenchmarkX1(b *testing.B)  { benchExperiment(b, "X1") }
func BenchmarkX2(b *testing.B)  { benchExperiment(b, "X2") }
func BenchmarkX3(b *testing.B)  { benchExperiment(b, "X3") }
func BenchmarkX4(b *testing.B)  { benchExperiment(b, "X4") }

// throughputScenario is one fixed bake-off cell in repro form: Hibernator
// on the headline geometry (4 RAID-5 groups of 4 multi-speed disks
// behind a 256 MiB write-back cache) serving OLTP at 200 req/s under a
// 20 ms goal for 600 simulated seconds.
const throughputScenario = `# hibchaos repro v1
seed 1
duration 600
scheme hibernator
family enterprise
levels 5
groups 4
group-disks 4
raid raid5
cache-mb 256
goal-ms 20
epoch-frac 0.125
workload oltp
rate 200
`

// BenchmarkSimulatorThroughput measures raw simulator speed: the fixed
// bake-off cell above through sim.Run, reported as simulated requests per
// wall second and allocations per simulated request — the figures that
// bound how long full-scale experiments take. Scenario construction
// (BuildRun) is excluded from both.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sc, err := chaos.ParseRepro(strings.NewReader(throughputScenario))
	if err != nil {
		b.Fatal(err)
	}
	var reqs, mallocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := sc.BuildRun()
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		res, err := sim.Run(r.Config, r.Source, r.Controller, r.Duration)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		reqs += res.Requests
		mallocs += after.Mallocs - before.Mallocs
		b.StartTimer()
	}
	b.ReportMetric(float64(reqs)/b.Elapsed().Seconds(), "sim-req/s")
	b.ReportMetric(float64(mallocs)/float64(reqs), "allocs/req")
}
