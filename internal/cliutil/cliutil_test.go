package cliutil

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFloatValidators(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		err  error
		ok   bool
	}{
		{"pos 1", Positive("-f", 1), true},
		{"pos tiny", Positive("-f", 1e-300), true},
		{"pos zero", Positive("-f", 0), false},
		{"pos neg", Positive("-f", -1), false},
		{"pos nan", Positive("-f", nan), false},
		{"pos +inf", Positive("-f", inf), false},
		{"pos -inf", Positive("-f", -inf), false},
		{"nonneg zero", NonNegative("-f", 0), true},
		{"nonneg pos", NonNegative("-f", 2.5), true},
		{"nonneg neg", NonNegative("-f", -0.1), false},
		{"nonneg nan", NonNegative("-f", nan), false},
		{"nonneg inf", NonNegative("-f", inf), false},
		{"atleast min", AtLeast("-f", 0.02, 0.02), true},
		{"atleast below", AtLeast("-f", 0.01, 0.02), false},
		{"atleast nan", AtLeast("-f", nan, 0.02), false},
		{"atleast inf", AtLeast("-f", inf, 0.02), false},
		{"prob zero", Prob("-f", 0), true},
		{"prob mid", Prob("-f", 0.5), true},
		{"prob one", Prob("-f", 1), false},
		{"prob neg", Prob("-f", -0.01), false},
		{"prob nan", Prob("-f", nan), false},
	}
	for _, c := range cases {
		if got := c.err == nil; got != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, c.err, c.ok)
		}
		if c.err != nil && !strings.Contains(c.err.Error(), "-f") {
			t.Errorf("%s: error %q does not name the flag", c.name, c.err)
		}
	}
}

func TestIntValidators(t *testing.T) {
	if err := PositiveInt("-n", 1); err != nil {
		t.Errorf("PositiveInt(1) = %v", err)
	}
	if PositiveInt("-n", 0) == nil || PositiveInt("-n", -3) == nil {
		t.Error("PositiveInt must reject 0 and negatives")
	}
	if err := NonNegativeInt("-n", 0); err != nil {
		t.Errorf("NonNegativeInt(0) = %v", err)
	}
	if NonNegativeInt("-n", -1) == nil {
		t.Error("NonNegativeInt must reject negatives")
	}
	if err := NonNegativeInt64("-b", 0); err != nil {
		t.Errorf("NonNegativeInt64(0) = %v", err)
	}
	if NonNegativeInt64("-b", -1) == nil {
		t.Error("NonNegativeInt64 must reject negatives")
	}
}

func TestFirstError(t *testing.T) {
	if FirstError(nil, nil, nil) != nil {
		t.Error("all-nil must return nil")
	}
	e1, e2 := errors.New("first"), errors.New("second")
	if got := FirstError(nil, e1, e2); got != e1 {
		t.Errorf("got %v, want the first non-nil error", got)
	}
	if FirstError() != nil {
		t.Error("empty call must return nil")
	}
}
