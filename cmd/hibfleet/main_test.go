package main

import (
	"math"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                      string
		arrays, tenants, cap, par int
		dur, accel                float64
		ok                        bool
	}{
		{"defaults", 20, 0, 0, 0, 300, 2000, true},
		{"explicit", 100, 400, 20, 8, 600, 1, true},
		{"zero arrays", 0, 0, 0, 0, 300, 2000, false},
		{"negative arrays", -5, 0, 0, 0, 300, 2000, false},
		{"negative tenants", 20, -1, 0, 0, 300, 2000, false},
		{"negative cap", 20, 0, -1, 0, 300, 2000, false},
		{"negative par", 20, 0, 0, -1, 300, 2000, false},
		{"zero dur", 20, 0, 0, 0, 0, 2000, false},
		{"NaN dur", 20, 0, 0, 0, math.NaN(), 2000, false},
		{"zero accel", 20, 0, 0, 0, 300, 0, false},
		{"Inf accel", 20, 0, 0, 0, 300, math.Inf(1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.arrays, tc.tenants, tc.cap, tc.par, tc.dur, tc.accel)
			if (err == nil) != tc.ok {
				t.Fatalf("validateFlags(%d,%d,%d,%d,%g,%g) = %v, want ok=%t",
					tc.arrays, tc.tenants, tc.cap, tc.par, tc.dur, tc.accel, err, tc.ok)
			}
		})
	}
}
