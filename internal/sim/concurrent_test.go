package sim_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hibernator/internal/invariant"
	"hibernator/internal/policy"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// TestConcurrentRunsShareOnResponse runs several simulations at once, all
// installing the SAME OnResponse closure (per-run state like the invariant
// checker stays per-run). Under -race this proves the hook plumbing adds no
// hidden shared state: each run must reproduce the serial reference
// exactly, each checker must come up clean, and the shared counter must see
// every foreground completion from every run.
func TestConcurrentRunsShareOnResponse(t *testing.T) {
	const duration = 600
	const runs = 4

	// Serial reference: result plus the deterministic per-run completion
	// count the shared hook should observe.
	var perRun uint64
	refCfg := spinConfig(7)
	refCfg.OnResponse = func(_ trace.Request, _ float64) { perRun++ }
	ref, err := sim.Run(refCfg, spinSource(t, refCfg, duration), policy.NewTPM(5), duration)
	if err != nil {
		t.Fatal(err)
	}
	if perRun == 0 {
		t.Fatal("reference run completed no foreground requests; test exercises nothing")
	}

	var total atomic.Uint64
	shared := func(_ trace.Request, _ float64) { total.Add(1) }

	results := make([]*sim.Result, runs)
	checkers := make([]*invariant.Checker, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := spinConfig(7)
			cfg.OnResponse = shared
			checkers[i] = invariant.New()
			cfg.Invariants = checkers[i]
			res, err := sim.Run(cfg, spinSource(t, cfg, duration), policy.NewTPM(5), duration)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res == nil {
			t.Fatalf("run %d produced no result", i)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("run %d diverged from the serial reference", i)
		}
		checkers[i].Finish(duration)
		if !checkers[i].Ok() {
			t.Errorf("run %d: %d invariant violations, first: %s",
				i, checkers[i].Count(), checkers[i].Violations()[0].String())
		}
	}
	if got := total.Load(); got != perRun*runs {
		t.Fatalf("shared OnResponse saw %d completions, want %d (%d runs x %d)",
			got, perRun*runs, runs, perRun)
	}
}
