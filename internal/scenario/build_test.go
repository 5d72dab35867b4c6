package scenario

import (
	"strings"
	"testing"

	"hibernator/internal/fault"
)

// Every name a scenario can carry builds through its part, and an
// unknown name fails with an error that names it.
func TestPartsNames(t *testing.T) {
	for _, fam := range []string{"enterprise", "sff"} {
		if _, err := DiskSpec(fam, 3); err != nil {
			t.Errorf("DiskSpec(%q): %v", fam, err)
		}
	}
	for _, lvl := range []string{"raid0", "raid1", "raid5"} {
		if _, err := RAIDLevel(lvl); err != nil {
			t.Errorf("RAIDLevel(%q): %v", lvl, err)
		}
	}
	for _, scheme := range []string{"base", "tpm", "drpm", "pdc", "maid", "hibernator"} {
		if _, err := NewController(scheme, 60); err != nil {
			t.Errorf("NewController(%q): %v", scheme, err)
		}
	}
	for _, kind := range []string{"oltp", "cello"} {
		if _, err := NewWorkload(kind, 1, 1<<30, 60, 10); err != nil {
			t.Errorf("NewWorkload(%q): %v", kind, err)
		}
	}

	_, errSpec := DiskSpec("ssd", 3)
	_, errRAID := RAIDLevel("raid6")
	_, errCtrl := NewController("warp", 60)
	_, errLoad := NewWorkload("web", 1, 1<<30, 60, 10)
	for _, tc := range []struct {
		err  error
		name string
	}{{errSpec, `"ssd"`}, {errRAID, `"raid6"`}, {errCtrl, `"warp"`}, {errLoad, `"web"`}} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.name) {
			t.Errorf("unknown name %s: got error %v", tc.name, tc.err)
		}
	}
}

// Config arms a fault schedule only when the scenario injects something,
// and the schedule it arms is a copy: a run's injection counters never
// touch the scenario.
func TestConfigFaults(t *testing.T) {
	s := Scenario{Seed: 1, Duration: 60, Scheme: "base", Family: "enterprise", Levels: 1,
		Groups: 1, GroupDisks: 3, RAID: "raid5", Workload: "oltp", Rate: 10}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != nil {
		t.Fatalf("fault-free scenario armed a schedule: %+v", cfg.Faults)
	}
	s.Events = []fault.Event{{Kind: fault.FailStop, Time: 10, Disk: 1}}
	cfg, err = s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil || len(cfg.Faults.Events) != 1 {
		t.Fatalf("scenario with one event armed %+v", cfg.Faults)
	}
	cfg.Faults.Events[0].Disk = 2
	if s.Events[0].Disk != 1 {
		t.Fatal("config's schedule aliases the scenario's events")
	}
}
