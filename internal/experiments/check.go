package experiments

import (
	"sync"

	"hibernator/internal/invariant"
	"hibernator/internal/sim"
)

// checkLogCap bounds the retained violation lines; the total keeps
// counting past it.
const checkLogCap = 200

var (
	checkMu    sync.Mutex
	checkTotal int
	checkLog   []string
)

// CheckViolations returns the process-wide invariant-violation tally
// accumulated by runs executed with Opts.Check, and up to checkLogCap
// rendered violation lines. cmd/hibexp reads it after the experiments
// finish to print the report and set the exit status.
func CheckViolations() (total int, samples []string) {
	checkMu.Lock()
	defer checkMu.Unlock()
	return checkTotal, append([]string(nil), checkLog...)
}

// ResetCheckViolations clears the tally (between test cases).
func ResetCheckViolations() {
	checkMu.Lock()
	defer checkMu.Unlock()
	checkTotal, checkLog = 0, nil
}

// audit arms a fresh invariant checker on cfg when o.Check is set and
// returns a collect function to call once the run finished; collect folds
// any violations into the process-wide tally under the given run name.
// With Check unset the config is untouched and collect is a no-op, so
// unchecked runs execute the exact pre-invariant event sequence.
//
// Like observe, audit names runs per simulation, not per experiment:
// memoized bake-off runs are shared, so the name identifies workload and
// scheme. Each run gets its own Checker; the shared tally is mutex-guarded
// for concurrent runs under Opts.Workers.
func (o *Opts) audit(cfg *sim.Config, name string) (collect func()) {
	if !o.Check {
		return func() {}
	}
	chk := invariant.New()
	cfg.Invariants = chk
	return func() {
		if chk.Ok() {
			return
		}
		o.logf("  CHECK %s: %d invariant violation(s)", name, chk.Count())
		checkMu.Lock()
		checkTotal += chk.Count()
		for _, v := range chk.Violations() {
			if len(checkLog) >= checkLogCap {
				break
			}
			checkLog = append(checkLog, name+": "+v.String())
		}
		checkMu.Unlock()
	}
}
