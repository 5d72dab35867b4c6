// Package scenario is the one description of a simulation run: array
// shape, disk family and speed levels, RAID level, cache, response goal,
// policy scheme, workload, retry policy and fault timeline. Scenario is
// that description, Validate its bounds, and the "# hibchaos repro v1"
// text (WriteRepro/ParseRepro) its serialization, the wire format of the
// job service and the benchmark harness alike.
//
// Every run is assembled through this package's parts, one function
// each: DiskSpec (family, levels), RAIDLevel (name), NewController
// (scheme, epoch seconds), NewWorkload (kind, seed, volume, duration,
// rate) and Scenario.Config. BuildRun is Validate plus those parts.
// The chaos harness judges and shrinks Scenarios, the fleet samples
// them (one per array, plus vintage and routing), and hibsim fills one
// from its flags, so a new disk family, scheme, RAID level or workload
// is added here and nowhere else.
package scenario

import (
	"fmt"
	"math"
	"strings"

	"hibernator/internal/array"
	"hibernator/internal/fault"
	"hibernator/internal/raid"
)

// Scenario is one fully-specified simulation: array shape, disk family,
// workload, policy scheme, retry policy and fault timeline. It is the unit
// the chaos generator samples, the oracles judge, the shrinker minimizes,
// the fleet draws per array and the repro files serialize — every field
// round-trips through WriteRepro and ParseRepro, so a repro file alone
// reproduces the run exactly.
type Scenario struct {
	Seed     int64
	Duration float64 // simulated seconds

	Scheme string // base | tpm | drpm | pdc | maid | hibernator
	Family string // enterprise | sff
	Levels int    // multi-speed RPM levels (1 = conventional)

	Groups     int
	GroupDisks int
	RAID       string // raid0 | raid1 | raid5
	SpareDisks int

	CacheMB    int64
	RespGoalMs float64 // 0 = no goal
	EpochFrac  float64 // hibernator/pdc epoch as a fraction of Duration (0 = 0.25)

	// SnapshotT arms the kill-and-restore oracle: the reference run
	// captures a state snapshot at this simulated time, and an extra run
	// restored from that snapshot must finish with the identical
	// fingerprint — the crash-safety contract of `hibsim -resume-from`.
	// 0 disables the oracle (pre-snapshot repro files replay unchanged).
	SnapshotT float64

	Workload string  // oltp | cello
	Rate     float64 // oltp: mean req/s; cello: day-peak burst rate

	Retry  array.RetryPolicy
	Rates  fault.Rates
	Events []fault.Event

	// BugEnergySkew is a deliberate-fault test hook: at BugSkewAt simulated
	// seconds, BugEnergySkew phantom joules are slipped into the energy
	// ledger of disk (BugSkewDisk mod disk count) — the PR 4 accounting-bug
	// shape. The armed invariant checker must catch it as a disk-energy
	// violation; the hook exists so the whole find->shrink->replay loop is
	// testable end to end. Zero disables it. The hook serializes into repro
	// files like any other field, so an injected-bug repro still replays.
	BugEnergySkew float64
	BugSkewAt     float64
	BugSkewDisk   int
}

// TotalDisks returns every drive the scenario creates (members + spares).
func (s *Scenario) TotalDisks() int { return s.Groups*s.GroupDisks + s.SpareDisks }

// String renders the scenario's shape on one line (for reports).
func (s *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d dur=%gs %s/%s levels=%d %dx%d %s spares=%d cache=%dMB",
		s.Seed, s.Duration, s.Scheme, s.Family, s.Levels,
		s.Groups, s.GroupDisks, s.RAID, s.SpareDisks, s.CacheMB)
	if s.RespGoalMs > 0 {
		fmt.Fprintf(&b, " goal=%gms", s.RespGoalMs)
	}
	if s.SnapshotT > 0 {
		fmt.Fprintf(&b, " snap@%gs", s.SnapshotT)
	}
	fmt.Fprintf(&b, " %s rate=%g", s.Workload, s.Rate)
	if s.Retry != (array.RetryPolicy{}) {
		fmt.Fprintf(&b, " retry=%d/%gs", s.Retry.MaxRetries, s.Retry.OpDeadline)
	}
	if s.Rates.TransientProb > 0 || s.Rates.SpinUpFailProb > 0 {
		fmt.Fprintf(&b, " ambient=%g/%g", s.Rates.TransientProb, s.Rates.SpinUpFailProb)
	}
	fmt.Fprintf(&b, " events=%d", len(s.Events))
	if s.BugEnergySkew != 0 {
		fmt.Fprintf(&b, " bug-skew=%gJ@%gs/d%d", s.BugEnergySkew, s.BugSkewAt, s.BugSkewDisk)
	}
	return b.String()
}

// Validate reports the first configuration error. A valid scenario is one
// sim.Run accepts; the chaos generator only emits valid scenarios and the
// shrinker only proposes valid candidates, so Validate is also the guard
// repro-file loading relies on. Its bounds (levels in [1,10], say) are
// the repro path's: callers that build from the parts directly, like
// hibsim's flags, are not held to them.
func (s *Scenario) Validate() error {
	if !(s.Duration > 0) || math.IsInf(s.Duration, 0) {
		return fmt.Errorf("scenario: duration must be positive and finite, got %g", s.Duration)
	}
	switch s.Scheme {
	case "base", "tpm", "drpm", "pdc", "hibernator":
	case "maid":
		if s.SpareDisks < 1 {
			return fmt.Errorf("scenario: maid needs at least one spare disk")
		}
	default:
		return fmt.Errorf("scenario: unknown scheme %q", s.Scheme)
	}
	if _, err := DiskSpec(s.Family, s.Levels); err != nil {
		return err
	}
	if s.Levels < 1 || s.Levels > 10 {
		return fmt.Errorf("scenario: levels %d outside [1,10]", s.Levels)
	}
	if s.Groups < 1 || s.GroupDisks < 1 {
		return fmt.Errorf("scenario: need positive groups (%d) and disks per group (%d)", s.Groups, s.GroupDisks)
	}
	lvl, err := RAIDLevel(s.RAID)
	if err != nil {
		return err
	}
	if err := (raid.Geometry{Level: lvl, Disks: s.GroupDisks, StripeUnit: 64 << 10}).Validate(); err != nil {
		return err
	}
	if s.SpareDisks < 0 {
		return fmt.Errorf("scenario: negative spare disks")
	}
	if s.CacheMB < 0 {
		return fmt.Errorf("scenario: negative cache size")
	}
	if s.RespGoalMs < 0 || math.IsNaN(s.RespGoalMs) || math.IsInf(s.RespGoalMs, 0) {
		return fmt.Errorf("scenario: bad response goal %g", s.RespGoalMs)
	}
	if s.EpochFrac < 0 || s.EpochFrac > 1 || math.IsNaN(s.EpochFrac) {
		return fmt.Errorf("scenario: epoch fraction %g outside [0,1]", s.EpochFrac)
	}
	if s.SnapshotT < 0 || math.IsNaN(s.SnapshotT) || math.IsInf(s.SnapshotT, 0) {
		return fmt.Errorf("scenario: bad snapshot time %g", s.SnapshotT)
	}
	if s.SnapshotT >= s.Duration && s.SnapshotT != 0 {
		return fmt.Errorf("scenario: snapshot time %g not inside (0, %g)", s.SnapshotT, s.Duration)
	}
	switch s.Workload {
	case "oltp", "cello":
	default:
		return fmt.Errorf("scenario: unknown workload %q", s.Workload)
	}
	if !(s.Rate > 0) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("scenario: rate must be positive and finite, got %g", s.Rate)
	}
	if s.Retry.MaxRetries < 0 || s.Retry.SuspectAfter < 0 || s.Retry.EvictAfter < 0 {
		return fmt.Errorf("scenario: negative retry policy counters")
	}
	if s.Retry.Backoff < 0 || s.Retry.BackoffFactor < 0 || s.Retry.OpDeadline < 0 ||
		math.IsNaN(s.Retry.Backoff) || math.IsNaN(s.Retry.BackoffFactor) || math.IsNaN(s.Retry.OpDeadline) {
		return fmt.Errorf("scenario: bad retry policy timings")
	}
	for i, ev := range s.Events {
		if ev.Disk < 0 || ev.Disk >= s.TotalDisks() {
			return fmt.Errorf("scenario: event %d targets disk %d outside [0,%d)", i, ev.Disk, s.TotalDisks())
		}
		if ev.Time < 0 || math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("scenario: event %d at bad time %g", i, ev.Time)
		}
	}
	if s.BugEnergySkew != 0 {
		if math.IsNaN(s.BugEnergySkew) || math.IsInf(s.BugEnergySkew, 0) {
			return fmt.Errorf("scenario: bad bug-skew joules %g", s.BugEnergySkew)
		}
		if s.BugSkewAt < 0 || math.IsNaN(s.BugSkewAt) || math.IsInf(s.BugSkewAt, 0) {
			return fmt.Errorf("scenario: bad bug-skew time %g", s.BugSkewAt)
		}
		if s.BugSkewDisk < 0 {
			return fmt.Errorf("scenario: negative bug-skew disk %d", s.BugSkewDisk)
		}
	}
	// A dry-run of the fault schedule's own validation against the real
	// array shape happens inside sim.Run (Schedule.Arm -> Validate); the
	// disk-range check above keeps shrunk candidates from tripping it.
	return nil
}
