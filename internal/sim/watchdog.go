package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hibernator/internal/obs"
)

// Watchdog bounds a run's execution so one stuck or runaway simulation
// cannot hang a whole suite. All three limits are optional (0 disables);
// a Watchdog with every field zero is ignored entirely. The watchdog only
// ever aborts — it schedules no events and reads no simulation state
// while the run is healthy — so an un-tripped run's output is
// byte-identical with or without it.
type Watchdog struct {
	// MaxWall aborts the run after this much wall-clock time.
	MaxWall time.Duration
	// MaxEvents aborts the run after this many fired events.
	MaxEvents uint64
	// Stall aborts the run when no event fires for this long — the
	// signature of a deadlocked or livelocked engine, as opposed to a
	// merely slow one.
	Stall time.Duration

	// Tick overrides the monitor goroutine's sampling interval (default
	// 25ms). Smaller values trade a little wake-up overhead for prompter
	// detection; tests shorten it so stall scenarios resolve quickly.
	Tick time.Duration
	// Now overrides the monitor's time source (default time.Now). Tests
	// inject a deterministic clock here so wall-clock and stall limits
	// trip on simulated elapsed time instead of real scheduler timing —
	// the knob that keeps the stall-path tests stable on loaded CI boxes.
	Now func() time.Time
}

// enabled reports whether any limit is armed.
func (w *Watchdog) enabled() bool {
	return w != nil && (w.MaxWall > 0 || w.MaxEvents > 0 || w.Stall > 0)
}

// WatchdogError reports an aborted run with enough diagnostics to see
// where it was stuck: the event count and pending-calendar depth at the
// abort, wall-clock elapsed, and the tail of the decision trace (empty
// when the run was untraced).
type WatchdogError struct {
	Reason    string
	Events    uint64
	Pending   int
	Elapsed   time.Duration
	LastTrace []obs.Event
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: %s after %v (%d events fired, %d pending)",
		e.Reason, e.Elapsed.Round(time.Millisecond), e.Events, e.Pending)
}

// errWatchdog is the sentinel the run loops return when a limit trips;
// Run translates it (and watchdog-cancelled contexts) into *WatchdogError.
var errWatchdog = errors.New("sim: watchdog tripped")

// wdPoll is how often the monitor goroutine samples progress unless
// Watchdog.Tick overrides it.
const wdPoll = 25 * time.Millisecond

// tick returns the monitor sampling interval (Tick, defaulting to wdPoll).
func (w *Watchdog) tick() time.Duration {
	if w.Tick > 0 {
		return w.Tick
	}
	return wdPoll
}

// clock returns the monitor time source (Now, defaulting to time.Now).
func (w *Watchdog) clock() func() time.Time {
	if w.Now != nil {
		return w.Now
	}
	return time.Now
}

// watchdogState is the live half of a Watchdog: an atomic progress
// counter the run loops bump, a monitor goroutine enforcing the
// wall-clock limits, and the trip reason for Run's error assembly. The
// monitor never reads engine or array state — the run loop (which owns
// that state) assembles the diagnostics after it observes the trip.
type watchdogState struct {
	cfg    *Watchdog
	now    func() time.Time
	start  time.Time
	events atomic.Uint64
	cancel context.CancelFunc
	stop   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	reason string
}

// startWatchdog launches the monitor goroutine. cancel is the derived
// run context's cancel function; tripping cancels it so the run loops
// exit at their next poll. The ticker only paces the polls; all elapsed
// time is measured through the (injectable) clock, so a delayed wake-up
// on a loaded machine never mimics a stall by itself.
func startWatchdog(cfg *Watchdog, cancel context.CancelFunc) *watchdogState {
	clock := cfg.clock()
	w := &watchdogState{cfg: cfg, now: clock, start: clock(), cancel: cancel, stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(cfg.tick())
		defer t.Stop()
		lastProgress := uint64(0)
		lastChange := clock()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				now := clock()
				if cfg.MaxWall > 0 && now.Sub(w.start) > cfg.MaxWall {
					w.trip(fmt.Sprintf("wall-clock budget %v exceeded", cfg.MaxWall))
					return
				}
				if cfg.Stall > 0 {
					if p := w.events.Load(); p != lastProgress {
						lastProgress, lastChange = p, now
					} else if now.Sub(lastChange) > cfg.Stall {
						w.trip(fmt.Sprintf("no progress for %v", cfg.Stall))
						return
					}
				}
			}
		}
	}()
	return w
}

// note publishes the run loop's event count to the monitor.
func (w *watchdogState) note(processed uint64) { w.events.Store(processed) }

// overBudget enforces the event budget from inside the run loop (the
// loop owns the exact count; the monitor only sees the sampled one).
func (w *watchdogState) overBudget(processed uint64) error {
	if w.cfg.MaxEvents > 0 && processed > w.cfg.MaxEvents {
		w.trip(fmt.Sprintf("event budget %d exceeded", w.cfg.MaxEvents))
		return errWatchdog
	}
	return nil
}

// trip records the first abort reason and cancels the run context.
func (w *watchdogState) trip(reason string) {
	w.mu.Lock()
	if w.reason == "" {
		w.reason = reason
	}
	w.mu.Unlock()
	w.cancel()
}

// tripReason returns the recorded reason ("" when the watchdog never
// fired — e.g. the run was cancelled externally).
func (w *watchdogState) tripReason() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reason
}

// halt stops the monitor goroutine and waits for it to exit.
func (w *watchdogState) halt() {
	close(w.stop)
	w.wg.Wait()
}

// wdTraceTail is how many trailing trace events a WatchdogError carries.
const wdTraceTail = 8
