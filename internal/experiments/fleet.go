package experiments

import (
	"hibernator/internal/fleet"
	"hibernator/internal/report"
)

// X7 lifts the evaluation to fleet scale: the same seeded fleet run twice,
// uncapped and under a fleet power cap, with per-tenant tail latency and
// the fleet-scope conservation verdict in the table.

func init() {
	register(Experiment{
		ID:           "X7",
		Title:        "Fleet power cap (heterogeneous arrays, routed tenants)",
		Reconstructs: "the paper's data-center framing at fleet scale: many arrays, one power budget",
		Run:          runX7,
	})
}

// x7Arrays keeps the fleet small enough that its runs finish alongside
// the single-array experiments.
const x7Arrays = 16

func runX7(o Opts) ([]*report.Table, error) {
	o.norm()
	dur := 1800 * o.Scale
	base := fleet.Config{
		Arrays: x7Arrays, Seed: o.Seed, Duration: dur,
		Par: o.Workers, Check: o.Check, Log: o.Log,
	}
	t := report.New("X7", "Fleet of 16 heterogeneous arrays, 64 routed tenants, with and without a power cap",
		"power cap", "capped arrays", "energy (kJ)", "mean resp (ms)", "tenant P99 max (ms)", "goal viol (mean)", "conservation")
	for _, cap := range []int{0, x7Arrays / 4} {
		cfg := base
		cfg.PowerCap = cap
		o.logf("X7: fleet cap=%d", cap)
		rep, err := fleet.Run(cfg)
		if err != nil {
			return nil, err
		}
		collectFleet(rep)
		label := "off"
		if cap > 0 {
			label = report.N(cap)
		}
		verdict := "ok"
		if !rep.ConservationOK {
			verdict = "VIOLATED"
		}
		t.AddRow(label, report.N(rep.CappedArrays), report.KJ(rep.TotalEnergyJ),
			report.Ms(rep.FleetMeanResp), report.Ms(rep.TenantP99Max),
			report.Pct(rep.GoalViolationMean), verdict)
	}
	t.AddNote("the cap licenses the most loaded quarter of the fleet; everyone else is pinned to the lowest RPM tier, trading tail latency on cold arrays for a hard ceiling on spindle power")
	return []*report.Table{t}, nil
}

// collectFleet folds a fleet report's invariant violations (and a failed
// fleet-scope conservation check) into the process-wide tally that
// cmd/hibexp reads, mirroring what audit's collect does for single runs.
func collectFleet(rep *fleet.Report) {
	n := len(rep.Violations)
	if !rep.ConservationOK {
		n++
	}
	if n == 0 {
		return
	}
	checkMu.Lock()
	defer checkMu.Unlock()
	checkTotal += n
	for _, v := range rep.Violations {
		if len(checkLog) >= checkLogCap {
			break
		}
		checkLog = append(checkLog, "X7: "+v)
	}
	if !rep.ConservationOK && len(checkLog) < checkLogCap {
		checkLog = append(checkLog, "X7: fleet-scope energy conservation violated")
	}
}
