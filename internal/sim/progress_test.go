package sim_test

import (
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"hibernator/internal/policy"
	"hibernator/internal/sim"
	"hibernator/internal/snapshot"
)

// Config.Progress must observe the run without perturbing it and end at
// the exact total event count — the job server derives percent-complete
// from it. The count is cross-checked against the events a snapshot at
// the end of the run records.
func TestProgressCounter(t *testing.T) {
	base := snapConfig(6, true)
	want, err := sim.Run(base, snapSource(t, base, 240), policy.NewTPM(5), 240)
	if err != nil {
		t.Fatal(err)
	}

	cfg := snapConfig(6, true)
	var progress atomic.Uint64
	cfg.Progress = &progress
	var last *snapshot.State
	cfg.SnapshotEvery = 240
	cfg.SnapshotSink = func(s *snapshot.State) error { last = s; return nil }
	got, err := sim.Run(cfg, snapSource(t, cfg, 240), policy.NewTPM(5), 240)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("progress counter perturbed the run")
	}
	if last == nil {
		t.Fatal("no snapshot at the end of the run")
	}
	events, _ := last.Get("state.events.processed")
	if total := strconv.FormatUint(progress.Load(), 10); total == "0" || total != events {
		t.Fatalf("final progress %s, want the %s events the run fired", total, events)
	}
}
