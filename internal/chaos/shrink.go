package chaos

import (
	"fmt"

	"hibernator/internal/array"
	"hibernator/internal/fault"
	"hibernator/internal/scenario"
)

// ShrinkResult is a minimized failing scenario plus the trail that led to
// it. Scenario still fails (possibly with a different failure kind than
// the original — any failure is worth keeping while minimizing), Steps
// records each accepted simplification in order, and Runs counts the
// Execute calls spent, shrinking included.
type ShrinkResult struct {
	Scenario scenario.Scenario
	Failure  Failure  // the minimized scenario's failure
	Steps    []string // accepted simplifications, in order
	Runs     int      // Execute calls consumed (1 Execute = 3 sim runs)
}

// Shrink minimizes a failing scenario: it greedily applies the cheapest
// structural simplifications — drop fault events, clear ambient rates,
// shorten the run, shrink the array, simplify policy and workload — and
// accepts a candidate whenever it still fails any oracle, until a full
// pass makes no progress or the budget of Execute calls runs out. The
// process is a pure function of the input scenario, so the same failure
// always shrinks to the same reproducer, at any soak parallelism.
//
// Shrink assumes the caller observed sc failing; it re-establishes the
// failure itself (one Execute) so the result always carries the verdict
// the minimized scenario actually produces.
func Shrink(sc scenario.Scenario, budget int) (ShrinkResult, bool) {
	if budget < 1 {
		budget = 1
	}
	res := ShrinkResult{Scenario: sc}
	fail := Execute(&sc)
	res.Runs++
	if fail == nil {
		return res, false // not failing (flaky callers get told, not looped on)
	}
	res.Failure = *fail

	for res.Runs < budget {
		improved := false
		for _, tr := range transforms {
			cands := tr.apply(&res.Scenario)
			for _, cand := range cands {
				if res.Runs >= budget {
					break
				}
				cand := cand
				if cand.Validate() != nil {
					continue
				}
				f := Execute(&cand)
				res.Runs++
				if f == nil {
					continue
				}
				res.Scenario = cand
				res.Failure = *f
				res.Steps = append(res.Steps, tr.describe(&cand))
				improved = true
				break // re-apply this transform against the new minimum
			}
		}
		if !improved {
			break
		}
	}
	return res, true
}

// transform proposes simplification candidates for a scenario. apply
// returns candidates in preference order (most aggressive first);
// describe labels an accepted candidate for the shrink trail.
type transform struct {
	name     string
	apply    func(s *scenario.Scenario) []scenario.Scenario
	describe func(s *scenario.Scenario) string
}

// dropOutOfRangeEvents removes events that no longer target an existing
// disk after the array shrank.
func dropOutOfRangeEvents(s *scenario.Scenario) {
	kept := s.Events[:0:0]
	for _, ev := range s.Events {
		if ev.Disk < s.TotalDisks() {
			kept = append(kept, ev)
		}
	}
	s.Events = kept
}

var transforms = []transform{
	{
		name: "drop-events",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			n := len(s.Events)
			if n == 0 {
				return nil
			}
			var out []scenario.Scenario
			// All of them, each half, then each single event (last first,
			// so timeline suffixes go before prefixes).
			cut := func(lo, hi int) {
				c := *s
				c.Events = append(append([]fault.Event(nil), s.Events[:lo]...), s.Events[hi:]...)
				out = append(out, c)
			}
			cut(0, n)
			if n > 1 {
				cut(n/2, n)
				cut(0, n/2)
			}
			for i := n - 1; i >= 0; i-- {
				cut(i, i+1)
			}
			return out
		},
		describe: func(s *scenario.Scenario) string { return fmt.Sprintf("drop fault events -> %d", len(s.Events)) },
	},
	{
		name: "clear-ambient",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			if s.Rates == (fault.Rates{}) {
				return nil
			}
			all := *s
			all.Rates = fault.Rates{}
			noTransient := *s
			noTransient.Rates.TransientProb = 0
			noSpin := *s
			noSpin.Rates.SpinUpFailProb = 0
			noSpin.Rates.SpinUpRetries = 0
			return []scenario.Scenario{all, noTransient, noSpin}
		},
		describe: func(s *scenario.Scenario) string { return fmt.Sprintf("clear ambient rates -> %+v", s.Rates) },
	},
	{
		name: "shorten",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			var out []scenario.Scenario
			for _, div := range []float64{4, 2} {
				d := snap(s.Duration / div)
				if d >= 30 {
					c := *s
					c.Duration = d
					if c.SnapshotT >= d {
						// Keep the kill-and-restore oracle armed inside the
						// shorter run rather than invalidating the candidate.
						c.SnapshotT = snap(d / 2)
					}
					out = append(out, c)
				}
			}
			return out
		},
		describe: func(s *scenario.Scenario) string { return fmt.Sprintf("shorten run -> %gs", s.Duration) },
	},
	{
		name: "fewer-groups",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			var out []scenario.Scenario
			for g := 1; g < s.Groups; g++ { // most aggressive first: 1, 2, ...
				c := *s
				c.Groups = g
				dropOutOfRangeEvents(&c)
				out = append(out, c)
			}
			return out
		},
		describe: func(s *scenario.Scenario) string { return fmt.Sprintf("reduce groups -> %d", s.Groups) },
	},
	{
		name: "fewer-disks",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			min := map[string]int{"raid0": 1, "raid1": 2, "raid5": 3}[s.RAID]
			step := 1
			if s.RAID == "raid1" {
				step = 2 // mirror pairs: even counts only
			}
			var out []scenario.Scenario
			for d := min; d < s.GroupDisks; d += step {
				c := *s
				c.GroupDisks = d
				dropOutOfRangeEvents(&c)
				out = append(out, c)
			}
			return out
		},
		describe: func(s *scenario.Scenario) string { return fmt.Sprintf("reduce group disks -> %d", s.GroupDisks) },
	},
	{
		name: "drop-spares",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			if s.SpareDisks == 0 || s.Scheme == "maid" {
				return nil // MAID needs its cache disks; simplify-scheme goes first
			}
			c := *s
			c.SpareDisks = 0
			dropOutOfRangeEvents(&c)
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return "drop spare disks" },
	},
	{
		name: "simplify-scheme",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			if s.Scheme == "base" {
				return nil
			}
			c := *s
			c.Scheme = "base"
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return "simplify scheme -> base" },
	},
	{
		name: "drop-cache",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			if s.CacheMB == 0 {
				return nil
			}
			c := *s
			c.CacheMB = 0
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return "drop controller cache" },
	},
	{
		name: "drop-goal",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			if s.RespGoalMs == 0 {
				return nil
			}
			c := *s
			c.RespGoalMs = 0
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return "drop response goal" },
	},
	{
		name: "zero-retry",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			if s.Retry == (array.RetryPolicy{}) {
				return nil
			}
			c := *s
			c.Retry = array.RetryPolicy{}
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return "disable retry policy" },
	},
	{
		name: "drop-snapshot",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			// Disarming the kill-and-restore oracle attributes the failure:
			// a restore-mismatch needs SnapshotT, so the shrinker keeps the
			// snapshot exactly when the snapshot machinery is implicated;
			// any other failure shrinks to a repro free of it.
			if s.SnapshotT == 0 {
				return nil
			}
			c := *s
			c.SnapshotT = 0
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return "drop snapshot capture" },
	},
	{
		name: "single-speed",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			if s.Levels == 1 {
				return nil
			}
			c := *s
			c.Levels = 1
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return "single-speed disks" },
	},
	{
		name: "simplify-workload",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			var out []scenario.Scenario
			if s.Workload == "cello" {
				c := *s
				c.Workload = "oltp"
				c.Rate = 10
				out = append(out, c)
			}
			if s.Workload == "oltp" && s.Rate > 2 {
				c := *s
				c.Rate = snap(s.Rate / 4)
				if c.Rate < 2 {
					c.Rate = 2
				}
				out = append(out, c)
			}
			return out
		},
		describe: func(s *scenario.Scenario) string {
			return fmt.Sprintf("simplify workload -> %s rate=%g", s.Workload, s.Rate)
		},
	},
	{
		name: "drop-bug-hook",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			if s.BugEnergySkew == 0 {
				return nil
			}
			c := *s
			c.BugEnergySkew, c.BugSkewAt, c.BugSkewDisk = 0, 0, 0
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return "drop bug hook" },
	},
	{
		name: "simplify-raid",
		apply: func(s *scenario.Scenario) []scenario.Scenario {
			// Last resort: swap the redundancy scheme for plain striping.
			// Accepted only when the failure is not redundancy-specific.
			if s.RAID == "raid0" {
				return nil
			}
			c := *s
			c.RAID = "raid0"
			if c.GroupDisks > 2 {
				c.GroupDisks = 2
			}
			dropOutOfRangeEvents(&c)
			return []scenario.Scenario{c}
		},
		describe: func(s *scenario.Scenario) string { return fmt.Sprintf("simplify raid -> raid0 x%d", s.GroupDisks) },
	},
}
