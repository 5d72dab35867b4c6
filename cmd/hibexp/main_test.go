package main

import (
	"math"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name               string
		scale, sampleEvery float64
		par, retries       int
		ok                 bool
	}{
		{"defaults", 1, 0, 0, 0, true},
		{"small scale", 0.05, 0.5, 8, 0, true},
		{"zero scale", 0, 0, 0, 0, false},
		{"negative scale", -1, 0, 0, 0, false},
		{"nan scale", math.NaN(), 0, 0, 0, false},
		{"inf scale", math.Inf(1), 0, 0, 0, false},
		{"negative par", 1, 0, -1, 0, false},
		{"negative sample-every", 1, -0.5, 0, 0, false},
		{"nan sample-every", 1, math.NaN(), 0, 0, false},
		{"retries", 1, 0, 0, 3, true},
		{"negative retries", 1, 0, 0, -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.scale, tc.sampleEvery, tc.par, tc.retries)
			if (err == nil) != tc.ok {
				t.Fatalf("validateFlags(%g, %g, %d, %d) = %v, want ok=%t", tc.scale, tc.sampleEvery, tc.par, tc.retries, err, tc.ok)
			}
		})
	}
}
