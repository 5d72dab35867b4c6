// Package cliutil validates numeric command-line flags for the hibsim,
// hibexp and hibchaos binaries. The helpers reject NaN and infinities
// explicitly: a plain `v <= 0` comparison silently passes NaN (every
// comparison with NaN is false), which is exactly how `-scale NaN` once
// sailed into the simulator. Each binary calls these from one validate
// function so the whole flag surface is table-testable without spawning
// processes.
package cliutil

import (
	"fmt"
	"math"
)

// bad reports NaN or ±Inf.
func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Positive rejects NaN, infinities and v <= 0 — for flags where zero is
// meaningless (durations, rates, scale factors, budgets).
func Positive(name string, v float64) error {
	if bad(v) || v <= 0 {
		return fmt.Errorf("%s must be positive and finite, got %g", name, v)
	}
	return nil
}

// AtLeast rejects NaN, infinities and v < min — for flags with a floor
// below which the program would otherwise clamp silently.
func AtLeast(name string, v, min float64) error {
	if bad(v) || v < min {
		return fmt.Errorf("%s must be >= %g and finite, got %g", name, min, v)
	}
	return nil
}

// NonNegative rejects NaN, infinities and v < 0 — for flags where zero
// means "disabled".
func NonNegative(name string, v float64) error {
	if bad(v) || v < 0 {
		return fmt.Errorf("%s must be >= 0 and finite, got %g", name, v)
	}
	return nil
}

// Prob rejects anything outside [0, 1), NaN included — for per-op
// probability flags (1 would fail every operation forever).
func Prob(name string, v float64) error {
	if bad(v) || v < 0 || v >= 1 {
		return fmt.Errorf("%s must be in [0,1), got %g", name, v)
	}
	return nil
}

// PositiveInt rejects v <= 0.
func PositiveInt(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("%s must be positive, got %d", name, v)
	}
	return nil
}

// NonNegativeInt rejects v < 0.
func NonNegativeInt(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0, got %d", name, v)
	}
	return nil
}

// NonNegativeInt64 rejects v < 0.
func NonNegativeInt64(name string, v int64) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0, got %d", name, v)
	}
	return nil
}

// FirstError returns the first non-nil error, so validate functions read
// as one flat list of rules.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
