package main

import "testing"

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name           string
		n, par, budget int
		ok             bool
	}{
		{"defaults", 200, 0, 120, true},
		{"sequential", 1, 1, 1, true},
		{"zero scenarios", 0, 0, 120, true},
		{"negative n", -1, 0, 120, false},
		{"negative par", 10, -2, 120, false},
		{"zero budget", 10, 0, 0, false},
		{"negative budget", 10, 0, -5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.n, tc.par, tc.budget)
			if (err == nil) != tc.ok {
				t.Fatalf("validateFlags(%d, %d, %d) = %v, want ok=%t", tc.n, tc.par, tc.budget, err, tc.ok)
			}
		})
	}
}
