package sim

import "hibernator/internal/simevent"

// ctxCheckEvery is how many events fire between cancellation polls; small
// enough to cancel promptly, large enough to keep ctx.Err() off the per-
// event hot path.
const ctxCheckEvery = 64

// runEngine drives the run's event loop to `duration`. With no context, no
// snapshots, no watchdog and no progress counter it is exactly the plain
// engine.Run call. Otherwise it adds periodic cancellation, progress and
// watchdog checks and between-event snapshot boundaries, and event order
// is still identical to Run: it steps the same calendar the same way; a
// snapshot boundary b fires only once every event at or before b has
// (events at exactly b go first — the strict b < at test), and capture
// schedules nothing, so the event stream is untouched.
func runEngine(cfg *Config, e *simevent.Engine, duration float64, snap *snapCtl, wd *watchdogState) error {
	if cfg.Context == nil && snap == nil && wd == nil && cfg.Progress == nil {
		e.Run(duration)
		return nil
	}
	n := 0
	for {
		at, ok := e.NextAt()
		if snap != nil {
			if b, bok := snap.peek(); bok && (!ok || at > duration || b < at) {
				if err := snap.fire(b); err != nil {
					return err
				}
				continue
			}
		}
		if !ok || at > duration {
			break
		}
		e.Step()
		if n++; n == ctxCheckEvery {
			n = 0
			if cfg.Progress != nil {
				cfg.Progress.Store(e.Processed())
			}
			if wd != nil {
				wd.note(e.Processed())
				if err := wd.overBudget(e.Processed()); err != nil {
					return err
				}
			}
			if cfg.Context != nil {
				if err := cfg.Context.Err(); err != nil {
					return err
				}
			}
		}
	}
	e.Run(duration) // nothing left at or below duration; advances the clock
	if cfg.Context != nil {
		return cfg.Context.Err()
	}
	return nil
}
