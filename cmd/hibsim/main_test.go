package main

import (
	"math"
	"testing"
	"time"
)

// goodFlags is the hibsim flag default set, known valid.
func goodFlags() simFlags {
	return simFlags{
		duration: 3600, rate: 50,
		groups: 4, groupDisks: 4, levels: 5,
		cacheMB: 256, retries: 2,
		opDeadline: 250 * time.Millisecond,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*simFlags)
		ok     bool
	}{
		{"defaults", func(f *simFlags) {}, true},
		{"zero goal and epoch", func(f *simFlags) { f.goal, f.epoch = 0, 0 }, true},
		{"zero duration", func(f *simFlags) { f.duration = 0 }, false},
		{"nan duration", func(f *simFlags) { f.duration = math.NaN() }, false},
		{"inf duration", func(f *simFlags) { f.duration = math.Inf(1) }, false},
		{"negative rate", func(f *simFlags) { f.rate = -1 }, false},
		{"nan rate", func(f *simFlags) { f.rate = math.NaN() }, false},
		{"zero groups", func(f *simFlags) { f.groups = 0 }, false},
		{"zero group-disks", func(f *simFlags) { f.groupDisks = 0 }, false},
		{"zero levels", func(f *simFlags) { f.levels = 0 }, false},
		{"negative cache", func(f *simFlags) { f.cacheMB = -1 }, false},
		{"negative fail-at", func(f *simFlags) { f.failAt = -1 }, false},
		{"nan fail-at", func(f *simFlags) { f.failAt = math.NaN() }, false},
		{"negative epoch", func(f *simFlags) { f.epoch = -1 }, false},
		{"negative goal", func(f *simFlags) { f.goal = -time.Second }, false},
		{"fault-rate one", func(f *simFlags) { f.faultRate = 1 }, false},
		{"nan fault-rate", func(f *simFlags) { f.faultRate = math.NaN() }, false},
		{"negative fault-rate", func(f *simFlags) { f.faultRate = -0.1 }, false},
		{"spin-fail-rate one", func(f *simFlags) { f.spinFail = 1 }, false},
		{"valid spin-fail-rate", func(f *simFlags) { f.spinFail = 0.5 }, true},
		{"negative retries", func(f *simFlags) { f.retries = -1 }, false},
		{"negative op-deadline", func(f *simFlags) { f.opDeadline = -time.Second }, false},
		{"negative sample-every", func(f *simFlags) { f.sampleEvery = -1 }, false},
		{"nan sample-every", func(f *simFlags) { f.sampleEvery = math.NaN() }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := goodFlags()
			tc.mutate(&f)
			err := validateFlags(f)
			if (err == nil) != tc.ok {
				t.Fatalf("validateFlags(%+v) = %v, want ok=%t", f, err, tc.ok)
			}
		})
	}
}
