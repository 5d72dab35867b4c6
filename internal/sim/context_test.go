package sim_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"hibernator/internal/diskmodel"
	"hibernator/internal/policy"
	"hibernator/internal/raid"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// spinConfig is a transition-heavy shape: several multi-speed groups, a
// bursty workload with long silences, and a policy that spins disks down.
func spinConfig(seed int64) sim.Config {
	return sim.Config{
		Spec:               diskmodel.MultiSpeedUltrastar(4, 3000),
		Groups:             4,
		GroupDisks:         2,
		Level:              raid.RAID0,
		ExtentBytes:        64 << 20,
		CacheBytes:         8 << 20,
		SampleEvery:        25,
		Seed:               seed,
		ExpectedRotLatency: true,
	}
}

func spinSource(t *testing.T, cfg sim.Config, duration float64) trace.Source {
	t.Helper()
	vol, err := sim.LogicalBytes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewCello(trace.CelloConfig{
		Seed: cfg.Seed + 11, VolumeBytes: vol, Duration: duration,
		DayPeriod: duration, DayRate: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestContextCancelSequential cancels a run mid-flight and checks the
// error surfaces and no goroutines are left behind — the watchdog's
// monitor goroutine included.
func TestContextCancelSequential(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := spinConfig(7)
	const duration = 600
	src := spinSource(t, cfg, duration)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must stop at the first check
	cfg.Context = ctx
	cfg.Watchdog = &sim.Watchdog{MaxWall: time.Hour, Stall: time.Hour}
	if _, err := sim.Run(cfg, src, policy.NewTPM(5), duration); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// Give the runtime a moment to avoid counting scheduler stragglers.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d goroutines before cancel, %d after — leak",
		before, runtime.NumGoroutine())
}

// TestContextCompletedRun runs to completion under a live context and must
// return a result, not an error.
func TestContextCompletedRun(t *testing.T) {
	cfg := spinConfig(7)
	cfg.Context = context.Background()
	const duration = 200
	src := spinSource(t, cfg, duration)
	res, err := sim.Run(cfg, src, policy.NewTPM(5), duration)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("completed run reported zero requests")
	}
}
