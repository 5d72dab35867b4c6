package chaos

import (
	"bytes"
	"fmt"
	"math/rand"

	"hibernator/internal/fleet"
)

// Fleet-scope failure kinds, in the order the oracles run.
const (
	// FailFleetConservation marks a fleet whose energy roll-up broke: a
	// per-array invariant violation surfaced in the report, or the fleet
	// total disagreed with the state-ledger re-derivation.
	FailFleetConservation = "fleet-conservation"
	// FailFleetRepeat marks a fleet whose identical rerun rendered
	// different report bytes.
	FailFleetRepeat = "fleet-repeat-mismatch"
	// FailFleetPar marks a fleet whose report bytes depended on the pool
	// width — the determinism contract cmd/hibfleet advertises.
	FailFleetPar = "fleet-par-mismatch"
)

// GenerateFleet samples the index-th fleet scenario of a soak seeded with
// seed: deliberately tiny fleets (2-4 arrays, 1-2 simulated minutes) so
// one scenario stays cheap, but with the power cap and tenant skew both
// in play. The result is a pure function of (seed, index).
func GenerateFleet(seed int64, index int) fleet.Config {
	rng := rand.New(rand.NewSource(mix(seed, int64(index)^0x0F1EE7)))
	cfg := fleet.Config{
		Arrays:   2 + rng.Intn(3),
		Seed:     int64(rng.Uint64() >> 1),
		Duration: float64(choice(rng, []int{60, 90})),
	}
	cfg.Tenants = cfg.Arrays * (1 + rng.Intn(4))
	if rng.Intn(2) == 0 {
		cfg.PowerCap = 1 + rng.Intn(cfg.Arrays)
	}
	return cfg
}

// ExecuteFleet judges one fleet scenario against the fleet oracles, in
// deterministic order:
//
//  1. a checked run must be infrastructurally clean, violate no per-array
//     invariant, and pass the fleet-scope conservation check;
//  2. repeating the run must render byte-identical report bytes;
//  3. running the same fleet at pool widths 1 and 4 must render the same
//     bytes — the -par determinism contract of cmd/hibfleet.
//
// A nil return means the scenario passed. ExecuteFleet is a pure function
// of the config, like Execute.
func ExecuteFleet(cfg fleet.Config) *Failure {
	cfg.Check = true
	cfg.Par = 1
	rep, err := fleet.Run(cfg)
	if err != nil {
		return &Failure{Kind: FailError, Detail: err.Error()}
	}
	if len(rep.Violations) > 0 {
		n := len(rep.Violations)
		if n > 3 {
			rep.Violations = rep.Violations[:3]
		}
		detail := ""
		for i, v := range rep.Violations {
			if i > 0 {
				detail += " | "
			}
			detail += v
		}
		if n > len(rep.Violations) {
			detail += fmt.Sprintf(" (+%d more)", n-len(rep.Violations))
		}
		return &Failure{Kind: FailFleetConservation, Detail: detail}
	}
	if !rep.ConservationOK {
		return &Failure{Kind: FailFleetConservation,
			Detail: fmt.Sprintf("fleet total %g J != ledger re-derivation %g J", rep.TotalEnergyJ, rep.LedgerEnergyJ)}
	}
	first := rep.Bytes()

	again, err := fleet.Run(cfg)
	if err != nil {
		return &Failure{Kind: FailFleetRepeat, Detail: "rerun failed where first run passed: " + err.Error()}
	}
	if !bytes.Equal(first, again.Bytes()) {
		return &Failure{Kind: FailFleetRepeat, Detail: firstByteDiff(first, again.Bytes())}
	}

	cfg.Par = 4
	wide, err := fleet.Run(cfg)
	if err != nil {
		return &Failure{Kind: FailFleetPar, Detail: "par=4 run failed where par=1 passed: " + err.Error()}
	}
	if !bytes.Equal(first, wide.Bytes()) {
		return &Failure{Kind: FailFleetPar, Detail: "par=1 vs 4: " + firstByteDiff(first, wide.Bytes())}
	}
	return nil
}

// firstByteDiff names the first line two report renderings disagree on
// (deterministic detail for soak reports).
func firstByteDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %q != %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d bytes", len(a), len(b))
}
