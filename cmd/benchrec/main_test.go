package main

import "testing"

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		scale    float64
		pr       int
		smoke    bool
		out      string
		baseline string
		ok       bool
	}{
		{"record mode", 0.05, 6, false, "BENCH_0006.json", "", true},
		{"smoke mode", 0.05, 0, true, "", "BENCH_0006.json", true},
		{"record without out", 0.05, 6, false, "", "", false},
		{"smoke without baseline", 0.05, 0, true, "", "", false},
		{"zero scale", 0, 6, false, "x.json", "", false},
		{"negative pr", 0.05, -1, false, "x.json", "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.scale, c.pr, c.smoke, c.out, c.baseline)
			if (err == nil) != c.ok {
				t.Fatalf("validateFlags(%+v) = %v, want ok=%v", c, err, c.ok)
			}
		})
	}
}
