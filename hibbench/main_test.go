package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hibernator/hibbench/benchstat"
	"hibernator/internal/chaos"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

type bareCtrl struct{}

func (bareCtrl) Name() string      { return "bare" }
func (bareCtrl) Init(env *sim.Env) {}

type arrivalCtrl struct{ bareCtrl }

func (arrivalCtrl) OnArrival(trace.Request) {}

type completionCtrl struct{ bareCtrl }

func (completionCtrl) OnComplete(float64, bool) {}

type routerCtrl struct{ bareCtrl }

func (routerCtrl) Route(trace.Request, func()) bool { return false }

type allCtrl struct{ bareCtrl }

func (allCtrl) OnArrival(trace.Request)          {}
func (allCtrl) OnComplete(float64, bool)         {}
func (allCtrl) Route(trace.Request, func()) bool { return false }

type arrivalRouterCtrl struct{ bareCtrl }

func (arrivalRouterCtrl) OnArrival(trace.Request)          {}
func (arrivalRouterCtrl) Route(trace.Request, func()) bool { return false }

func optional(c sim.Controller) [3]bool {
	_, a := c.(sim.ArrivalObserver)
	_, o := c.(sim.CompletionObserver)
	_, r := c.(sim.Router)
	return [3]bool{a, o, r}
}

// The wrapper must change none of sim.Run's paths: it implements an
// optional interface exactly when the wrapped controller does.
func TestWrapControllerKeepsOptionalInterfaces(t *testing.T) {
	for _, c := range []sim.Controller{
		bareCtrl{}, arrivalCtrl{}, completionCtrl{}, routerCtrl{}, allCtrl{}, arrivalRouterCtrl{},
	} {
		w, spans := wrapController(c)
		if got, want := optional(w), optional(c); got != want {
			t.Errorf("%T: wrapper implements %v, controller %v", c, got, want)
		}
		if w.Name() != c.Name() {
			t.Errorf("%T: name %q", c, w.Name())
		}
		if o, ok := w.(sim.ArrivalObserver); ok {
			o.OnArrival(trace.Request{})
			if spans.calls["ctrl.OnArrival"] != 1 {
				t.Errorf("%T: OnArrival not timed", c)
			}
		}
	}
}

// Workload names and metric names must agree with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || !benchstat.ValidName(w.Name) {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []benchstat.Def
	}{{spec.EndToEnd, benchstat.EndToEnd}, {spec.PerLayer, benchstat.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].Name || m.Unit != c.want[i].Unit {
				t.Errorf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

func TestVariantSeedsAreDisjointAcrossSeeds(t *testing.T) {
	for _, w := range workloads {
		seen := map[int64]bool{}
		for s := int64(0); s < 5; s++ {
			for k := 0; k < w.variants; k++ {
				v := w.variantSeed(s, k)
				if seen[v] {
					t.Fatalf("%s: scenario seed %d used twice", w.name, v)
				}
				seen[v] = true
			}
		}
		sc, err := w.parse(7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Seed != w.variantSeed(7, 1) {
			t.Errorf("%s: parsed seed %d", w.name, sc.Seed)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", 0)
	child := tr.begin("sim.Run", root)
	tr.end(child)
	tr.aggregate("trace.Source.Next", child, 3, 0)
	tr.end(root)
	tr.spans[0].Start, tr.spans[0].End = 0, 100
	tr.spans[1].Start, tr.spans[1].End = 10, 90
	tr.spans[2].Summed = 30
	st := tr.selfTimes()
	if st["job"] != [2]time.Duration{100, 20} || st["sim.Run"] != [2]time.Duration{80, 50} ||
		st["trace.Source.Next"] != [2]time.Duration{30, 30} {
		t.Errorf("self times = %v", st)
	}
	if tr.spans[2].Job != root || tr.spans[1].Parent != root {
		t.Errorf("span tree = %+v", tr.spans)
	}
	if bad := tr.overfull(); len(bad) != 0 {
		t.Errorf("overfull = %v, want none", bad)
	}
	// Children summing past their parent make its self time negative.
	tr.spans[2].Summed = 81
	if bad := tr.overfull(); len(bad) != 1 || bad[0] != "sim.Run" {
		t.Errorf("overfull = %v, want [sim.Run]", bad)
	}
}

func TestSustainedPeak(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		n    int
		want float64
	}{
		{[]float64{1, 9, 1, 5, 5, 5, 2}, 3, 5},
		{[]float64{1, 9, 1, 5, 5, 5, 2}, 1, 9},
		{[]float64{4, 3}, 16, 3},
		{[]float64{7}, 16, 7},
	} {
		if got := sustainedPeak(c.in, c.n); got != c.want {
			t.Errorf("sustainedPeak(%v, %d) = %v, want %v", c.in, c.n, got, c.want)
		}
	}
}

func TestCheckResult(t *testing.T) {
	ok := &sim.Result{Requests: 1000, Energy: 30, EnergyByState: map[string]float64{"idle": 10, "active": 20}}
	if err := checkResult(ok, 1000, 1000); err != nil {
		t.Errorf("consistent result: %v", err)
	}
	if err := checkResult(ok, 1072, 1000); err != nil {
		t.Errorf("72 requests in flight at the end: %v", err)
	}
	skewed := *ok
	skewed.Energy = 31
	if checkResult(&skewed, 1000, 1000) == nil {
		t.Error("energy by state not summing to the total: want an error")
	}
	if checkResult(ok, 999, 999) == nil {
		t.Error("more requests counted than completed: want an error")
	}
	if checkResult(ok, 1000, 1001) == nil {
		t.Error("a completion the simulator did not count: want an error")
	}
	if checkResult(ok, 999, 1000) == nil {
		t.Error("more completions than the source emitted: want an error")
	}
}

// A whole job of the smallest workload runs clean, and a second run of
// the same variant reproduces the first.
func TestSimJobReproduces(t *testing.T) {
	w, _ := workloadByName("served-durable")
	sc, err := w.parse(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	refs := &variantRefs{scs: []*chaos.Scenario{sc}, refs: make([]*chaos.Fingerprint, 1), res: make([]*sim.Result, 1)}
	for i := 0; i < 2; i++ {
		j, err := runSimJob(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := refs.check(0, j.res); err != nil {
			t.Fatal(err)
		}
	}
	traced, err := runTracedJob(sc, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if got := chaos.FingerprintOf(traced.res); got != *refs.refs[0] {
		t.Errorf("traced run differs: %+v vs %+v", got, *refs.refs[0])
	}
	if traced.env == nil || len(traced.env.Array.Disks()) != 4 || traced.events == 0 {
		t.Errorf("traced run did not capture the array or the event count")
	}
}

// The reference service fsyncs every body it is sent and times each
// reference job.
func TestRefServiceJobs(t *testing.T) {
	dir := t.TempDir()
	rs, err := startRefService(dir)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []float64
	err = rs.jobs(2, &jobs)
	if cerr := rs.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || !(jobs[0] > 0 && jobs[1] > 0) {
		t.Fatalf("reference job times %v, want two positive", jobs)
	}
	fi, err := os.Stat(filepath.Join(dir, "refservice.log"))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * 3 * len(refBody)); fi.Size() != want {
		t.Fatalf("reference service wrote %d bytes, want %d", fi.Size(), want)
	}
}
