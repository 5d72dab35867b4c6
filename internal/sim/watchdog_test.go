package sim_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hibernator/internal/policy"
	"hibernator/internal/sim"
	"hibernator/internal/simevent"
)

// sleepController wedges the engine: every simulated second it burns d of
// wall-clock time, which is how a stuck run looks from the outside.
type sleepController struct{ d time.Duration }

func (*sleepController) Name() string { return "sleepy" }

func (s *sleepController) Init(env *sim.Env) {
	simevent.NewTicker(env.Engine, 1.0, func(float64) { time.Sleep(s.d) })
}

// fakeClock returns a time source that advances `step` on every reading.
// Injected via Watchdog.Now it makes elapsed-time limits trip after a
// deterministic number of monitor polls regardless of real scheduler
// timing — the stall and wall-clock tests below cannot flake on a loaded
// machine because they never race against real time.
func fakeClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(step)
		return now
	}
}

func TestWatchdogEventBudget(t *testing.T) {
	cfg := snapConfig(6, false)
	cfg.Watchdog = &sim.Watchdog{MaxEvents: 2000}
	_, err := sim.Run(cfg, snapSource(t, cfg, 240), policy.NewTPM(5), 240)
	var werr *sim.WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("want *sim.WatchdogError, got %v", err)
	}
	if !strings.Contains(werr.Reason, "event budget") {
		t.Fatalf("reason = %q", werr.Reason)
	}
	if werr.Events == 0 {
		t.Fatal("diagnostics missing event count")
	}
}

func TestWatchdogStall(t *testing.T) {
	cfg := snapConfig(6, false)
	cfg.Watchdog = &sim.Watchdog{
		Stall: 50 * time.Millisecond,
		Tick:  time.Millisecond,
		Now:   fakeClock(30 * time.Millisecond),
	}
	_, err := sim.Run(cfg, snapSource(t, cfg, 240), &sleepController{d: 100 * time.Millisecond}, 240)
	var werr *sim.WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("want *sim.WatchdogError, got %v", err)
	}
	if !strings.Contains(werr.Reason, "no progress") {
		t.Fatalf("reason = %q", werr.Reason)
	}
}

func TestWatchdogMaxWall(t *testing.T) {
	cfg := snapConfig(6, false)
	cfg.Watchdog = &sim.Watchdog{
		MaxWall: 150 * time.Millisecond,
		Tick:    time.Millisecond,
		Now:     fakeClock(30 * time.Millisecond),
	}
	_, err := sim.Run(cfg, snapSource(t, cfg, 240), &sleepController{d: 40 * time.Millisecond}, 240)
	var werr *sim.WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("want *sim.WatchdogError, got %v", err)
	}
	if !strings.Contains(werr.Reason, "wall-clock") {
		t.Fatalf("reason = %q", werr.Reason)
	}
	if werr.Elapsed <= 0 {
		t.Fatal("diagnostics missing elapsed time")
	}
}

// TestWatchdogBenign: an armed-but-untripped watchdog must not perturb
// the run.
func TestWatchdogBenign(t *testing.T) {
	cfg := snapConfig(6, true)
	base, err := sim.Run(cfg, snapSource(t, cfg, 240), policy.NewTPM(5), 240)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := snapConfig(6, true)
	cfg2.Watchdog = &sim.Watchdog{MaxWall: time.Hour, MaxEvents: 1 << 60, Stall: time.Hour}
	guarded, err := sim.Run(cfg2, snapSource(t, cfg2, 240), policy.NewTPM(5), 240)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, guarded) {
		t.Fatal("watchdog perturbed the run")
	}
}
