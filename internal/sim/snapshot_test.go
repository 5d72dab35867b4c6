package sim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hibernator/internal/array"
	"hibernator/internal/diskmodel"
	"hibernator/internal/fault"
	"hibernator/internal/hibernator"
	"hibernator/internal/policy"
	"hibernator/internal/raid"
	"hibernator/internal/sim"
	"hibernator/internal/snapshot"
	"hibernator/internal/trace"
)

// snapConfig is the round-trip matrix shape: multi-speed groups, a cache,
// a time series, and (optionally) a fault storm, so a snapshot has to get
// every subsystem's state right.
func snapConfig(seed int64, faults bool) sim.Config {
	cfg := sim.Config{
		Spec:               diskmodel.MultiSpeedUltrastar(4, 3000),
		Groups:             4,
		GroupDisks:         3,
		Level:              raid.RAID5,
		ExtentBytes:        64 << 20,
		CacheBytes:         8 << 20,
		SampleEvery:        25,
		RespGoal:           0.03,
		RespWindow:         30,
		SpareDisks:         1,
		Seed:               seed,
		ExpectedRotLatency: true,
	}
	if faults {
		cfg.Retry = array.RetryPolicy{MaxRetries: 2, Backoff: 0.005, OpDeadline: 2, SuspectAfter: 5}
		cfg.Faults = &fault.Schedule{
			Rates:  fault.Rates{TransientProb: 0.001, SpinUpFailProb: 0.02},
			Events: []fault.Event{{Time: 90, Disk: 1, Kind: fault.FailSlow, Factor: 3, Ramp: 20}},
		}
	}
	return cfg
}

func snapSource(t *testing.T, cfg sim.Config, duration float64) trace.Source {
	t.Helper()
	vol, err := sim.LogicalBytes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewCello(trace.CelloConfig{
		Seed: cfg.Seed + 11, VolumeBytes: vol, Duration: duration,
		DayPeriod: duration, DayRate: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// snapSchemes builds one controller per scheme; a fresh controller per
// run, since controllers carry state.
var snapSchemes = []struct {
	name string
	make func() sim.Controller
}{
	{"TPM", func() sim.Controller { return policy.NewTPM(5) }},
	{"DRPM", func() sim.Controller { return policy.NewDRPM() }},
	{"PDC", func() sim.Controller { p := policy.NewPDC(); p.Epoch = 80; return p }},
	{"MAID", func() sim.Controller { return policy.NewMAID() }},
	{"Hibernator", func() sim.Controller { return hibernator.New(hibernator.Options{Epoch: 80}) }},
}

// TestSnapshotRoundTripMatrix is the tentpole property over every scheme
// × faults: (a) a run that captures snapshots is byte-identical to one
// that does not; (b) restoring the mid-run snapshot and running to the end
// reproduces the straight-through run exactly — including the
// snapshots the resumed run itself captures after the restore point.
//
// The w1 case restores the snapshot this run captured. The w8 case
// restores the t=160 snapshot a workers=8 run of the former
// group-partitioned engine wrote (testdata/*-w8-t160.snap): snapshots
// stored before that engine was removed must resume to the same result,
// and must equal what the sequential engine captures at that point.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	const duration = 240
	const every = 80 // boundaries at 80, 160, 240
	for _, sch := range snapSchemes {
		for _, faults := range []bool{false, true} {
			for _, stored := range []bool{false, true} {
				sch, faults, stored := sch, faults, stored
				name := sch.name + "/clean"
				if faults {
					name = sch.name + "/faults"
				}
				fixture := filepath.Join("testdata", strings.ToLower(strings.Replace(name, "/", "-", 1))+"-w8-t160.snap")
				if stored {
					name += "/w8"
				} else {
					name += "/w1"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := snapConfig(42, faults)
					// Straight-through, no snapshots: the baseline.
					base, err := sim.Run(cfg, snapSource(t, cfg, duration), sch.make(), duration)
					if err != nil {
						t.Fatal(err)
					}
					// Same run with snapshots enabled.
					var snaps []*snapshot.State
					cfg2 := snapConfig(42, faults)
					cfg2.SnapshotEvery = every
					cfg2.SnapshotSink = func(s *snapshot.State) error { snaps = append(snaps, s); return nil }
					snapped, err := sim.Run(cfg2, snapSource(t, cfg2, duration), sch.make(), duration)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(base, snapped) {
						t.Fatalf("snapshot capture perturbed the run:\n%+v\nvs\n%+v", base, snapped)
					}
					if len(snaps) != 3 {
						t.Fatalf("captured %d snapshots, want 3", len(snaps))
					}
					mid := snaps[1].Bytes()
					if stored {
						old, err := os.ReadFile(fixture)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(mid, old) {
							t.Fatalf("t=160 capture differs from the stored workers=8 snapshot %s", fixture)
						}
						mid = old
					}
					// File round trip: write -> parse -> write is a fixed point.
					reparsed, err := snapshot.Parse(bytes.NewReader(mid))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(mid, reparsed.Bytes()) {
						t.Fatal("snapshot bytes are not a parse fixed point")
					}
					// Restore from t=160 and run to the end: result and the
					// post-restore snapshot must match the originals exactly.
					var resnaps []*snapshot.State
					cfg3 := snapConfig(42, faults)
					cfg3.SnapshotEvery = every
					cfg3.SnapshotSink = func(s *snapshot.State) error { resnaps = append(resnaps, s); return nil }
					cfg3.ResumeFrom = reparsed
					resumed, err := sim.Run(cfg3, snapSource(t, cfg3, duration), sch.make(), duration)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(base, resumed) {
						t.Fatalf("resumed result diverged from straight-through:\n%+v\nvs\n%+v", base, resumed)
					}
					if len(resnaps) != 3 {
						t.Fatalf("resumed run captured %d snapshots, want 3", len(resnaps))
					}
					for i := range snaps {
						if !bytes.Equal(snaps[i].Bytes(), resnaps[i].Bytes()) {
							t.Fatalf("resumed snapshot %d diverged from original", i)
						}
					}
				})
			}
		}
	}
}

// TestResumeRejectsConfigMismatch: resuming under a different
// configuration must fail before the replay starts, naming the key.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	const duration = 120
	var snaps []*snapshot.State
	cfg := snapConfig(3, false)
	cfg.SnapshotEvery = 60
	cfg.SnapshotSink = func(s *snapshot.State) error { snaps = append(snaps, s); return nil }
	if _, err := sim.Run(cfg, snapSource(t, cfg, duration), policy.NewTPM(5), duration); err != nil {
		t.Fatal(err)
	}
	cfg2 := snapConfig(3, false)
	cfg2.Seed = 999 // different run identity
	cfg2.ResumeFrom = snaps[0]
	_, err := sim.Run(cfg2, snapSource(t, cfg2, duration), policy.NewTPM(5), duration)
	if err == nil || !strings.Contains(err.Error(), "config.seed") {
		t.Fatalf("want config.seed mismatch error, got %v", err)
	}
}

// TestResumeDetectsStateDivergence: a corrupted state entry must abort
// the replay with the first divergent key in the error.
func TestResumeDetectsStateDivergence(t *testing.T) {
	const duration = 120
	var snaps []*snapshot.State
	cfg := snapConfig(4, false)
	cfg.SnapshotEvery = 60
	cfg.SnapshotSink = func(s *snapshot.State) error { snaps = append(snaps, s); return nil }
	if _, err := sim.Run(cfg, snapSource(t, cfg, duration), policy.NewTPM(5), duration); err != nil {
		t.Fatal(err)
	}
	// Corrupt one state line through the serialized form.
	text := string(snaps[0].Bytes())
	corrupt := strings.Replace(text, "state.requests ", "state.requests 9", 1)
	if corrupt == text {
		t.Fatal("corruption did not apply")
	}
	bad, err := snapshot.Parse(strings.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := snapConfig(4, false)
	cfg2.ResumeFrom = bad
	_, err = sim.Run(cfg2, snapSource(t, cfg2, duration), policy.NewTPM(5), duration)
	if err == nil || !strings.Contains(err.Error(), "state.requests") {
		t.Fatalf("want state.requests divergence error, got %v", err)
	}
}

// TestResumeRejectsBadEpoch: a snapshot whose epoch lies beyond the run
// duration cannot be resumed.
func TestResumeRejectsBadEpoch(t *testing.T) {
	const duration = 120
	var snaps []*snapshot.State
	cfg := snapConfig(5, false)
	cfg.SnapshotEvery = 60
	cfg.SnapshotSink = func(s *snapshot.State) error { snaps = append(snaps, s); return nil }
	if _, err := sim.Run(cfg, snapSource(t, cfg, duration), policy.NewTPM(5), duration); err != nil {
		t.Fatal(err)
	}
	cfg2 := snapConfig(5, false)
	cfg2.ResumeFrom = snaps[1] // t=120
	src := snapSource(t, cfg2, duration)
	if _, err := sim.Run(cfg2, src, policy.NewTPM(5), 60); err == nil {
		t.Fatal("epoch beyond duration must be rejected")
	}
}
