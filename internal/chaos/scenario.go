// Package chaos explores the simulator's configuration space with
// randomized-but-valid scenarios and checks each one against independent
// oracles: the armed invariant checker (internal/invariant), repeat
// determinism (the same scenario must reproduce itself bit for bit),
// armed/unarmed equivalence (observing a run must not perturb it), and
// panic freedom. Any scenario that fails an oracle is automatically
// shrunk — fault events dropped, the trace shortened, the array reduced,
// the policy simplified — to a minimal reproducer that serializes to a
// self-contained repro file `hibsim -repro <file>` replays exactly.
//
// The package is the property-testing loop the curated experiments cannot
// be: PR 2's fault injection supplies the adversity, PR 4's invariant
// checker supplies the oracle, and the generator (gen.go) supplies the
// breadth. cmd/hibchaos drives soaks over internal/runner so a clean run
// is also a determinism proof: the soak report is byte-identical across
// -par widths for a fixed seed.
package chaos

import (
	"fmt"
	"math"
	"strings"

	"hibernator/internal/array"
	"hibernator/internal/diskmodel"
	"hibernator/internal/fault"
	"hibernator/internal/hibernator"
	"hibernator/internal/policy"
	"hibernator/internal/raid"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// Scenario is one fully-specified simulation: array shape, disk family,
// workload, policy scheme, retry policy and fault timeline. It is the unit
// the generator samples, the oracles judge, the shrinker minimizes and the
// repro files serialize — every field round-trips through WriteRepro and
// ParseRepro, so a repro file alone reproduces the run exactly.
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

// raidLevel maps the textual RAID level.
func raidLevel(name string) (raid.Level, error) {
	switch name {
	case "raid0":
		return raid.RAID0, nil
	case "raid1":
		return raid.RAID1, nil
	case "raid5":
		return raid.RAID5, nil
	}
	return 0, fmt.Errorf("chaos: unknown RAID level %q", name)
}

// spec builds the disk model the scenario names.
func (s *Scenario) spec() (diskmodel.Spec, error) {
	switch s.Family {
	case "enterprise":
		if s.Levels > 1 {
			return diskmodel.MultiSpeedUltrastar(s.Levels, 3000), nil
		}
		return diskmodel.SingleSpeedUltrastar(), nil
	case "sff":
		return diskmodel.MultiSpeedSFF(s.Levels, 1800), nil
	}
	return diskmodel.Spec{}, fmt.Errorf("chaos: unknown disk family %q", s.Family)
}

// Validate reports the first configuration error. A valid scenario is one
// sim.Run accepts; the generator only emits valid scenarios and the
// shrinker only proposes valid candidates, so Validate is also the guard
// repro-file loading relies on.
func (s *Scenario) Validate() error {
	if !(s.Duration > 0) || math.IsInf(s.Duration, 0) {
		return fmt.Errorf("chaos: duration must be positive and finite, got %g", s.Duration)
	}
	switch s.Scheme {
	case "base", "tpm", "drpm", "pdc", "hibernator":
	case "maid":
		if s.SpareDisks < 1 {
			return fmt.Errorf("chaos: maid needs at least one spare disk")
		}
	default:
		return fmt.Errorf("chaos: unknown scheme %q", s.Scheme)
	}
	if _, err := s.spec(); err != nil {
		return err
	}
	if s.Levels < 1 || s.Levels > 10 {
		return fmt.Errorf("chaos: levels %d outside [1,10]", s.Levels)
	}
	if s.Groups < 1 || s.GroupDisks < 1 {
		return fmt.Errorf("chaos: need positive groups (%d) and disks per group (%d)", s.Groups, s.GroupDisks)
	}
	lvl, err := raidLevel(s.RAID)
	if err != nil {
		return err
	}
	if err := (raid.Geometry{Level: lvl, Disks: s.GroupDisks, StripeUnit: 64 << 10}).Validate(); err != nil {
		return err
	}
	if s.SpareDisks < 0 {
		return fmt.Errorf("chaos: negative spare disks")
	}
	if s.CacheMB < 0 {
		return fmt.Errorf("chaos: negative cache size")
	}
	if s.RespGoalMs < 0 || math.IsNaN(s.RespGoalMs) || math.IsInf(s.RespGoalMs, 0) {
		return fmt.Errorf("chaos: bad response goal %g", s.RespGoalMs)
	}
	if s.EpochFrac < 0 || s.EpochFrac > 1 || math.IsNaN(s.EpochFrac) {
		return fmt.Errorf("chaos: epoch fraction %g outside [0,1]", s.EpochFrac)
	}
	if s.SnapshotT < 0 || math.IsNaN(s.SnapshotT) || math.IsInf(s.SnapshotT, 0) {
		return fmt.Errorf("chaos: bad snapshot time %g", s.SnapshotT)
	}
	if s.SnapshotT >= s.Duration && s.SnapshotT != 0 {
		return fmt.Errorf("chaos: snapshot time %g not inside (0, %g)", s.SnapshotT, s.Duration)
	}
	switch s.Workload {
	case "oltp", "cello":
	default:
		return fmt.Errorf("chaos: unknown workload %q", s.Workload)
	}
	if !(s.Rate > 0) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("chaos: rate must be positive and finite, got %g", s.Rate)
	}
	if s.Retry.MaxRetries < 0 || s.Retry.SuspectAfter < 0 || s.Retry.EvictAfter < 0 {
		return fmt.Errorf("chaos: negative retry policy counters")
	}
	if s.Retry.Backoff < 0 || s.Retry.BackoffFactor < 0 || s.Retry.OpDeadline < 0 ||
		math.IsNaN(s.Retry.Backoff) || math.IsNaN(s.Retry.BackoffFactor) || math.IsNaN(s.Retry.OpDeadline) {
		return fmt.Errorf("chaos: bad retry policy timings")
	}
	for i, ev := range s.Events {
		if ev.Disk < 0 || ev.Disk >= s.TotalDisks() {
			return fmt.Errorf("chaos: event %d targets disk %d outside [0,%d)", i, ev.Disk, s.TotalDisks())
		}
		if ev.Time < 0 || math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("chaos: event %d at bad time %g", i, ev.Time)
		}
	}
	if s.BugEnergySkew != 0 {
		if math.IsNaN(s.BugEnergySkew) || math.IsInf(s.BugEnergySkew, 0) {
			return fmt.Errorf("chaos: bad bug-skew joules %g", s.BugEnergySkew)
		}
		if s.BugSkewAt < 0 || math.IsNaN(s.BugSkewAt) || math.IsInf(s.BugSkewAt, 0) {
			return fmt.Errorf("chaos: bad bug-skew time %g", s.BugSkewAt)
		}
		if s.BugSkewDisk < 0 {
			return fmt.Errorf("chaos: negative bug-skew disk %d", s.BugSkewDisk)
		}
	}
	// A dry-run of the fault schedule's own validation against the real
	// array shape happens inside sim.Run (Schedule.Arm -> Validate); the
	// disk-range check above keeps shrunk candidates from tripping it.
	return nil
}

// simConfig translates the scenario into a sim.Config (no checker armed —
// Execute decides that per run).
func (s *Scenario) simConfig() (sim.Config, error) {
	spec, err := s.spec()
	if err != nil {
		return sim.Config{}, err
	}
	lvl, err := raidLevel(s.RAID)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Spec:               spec,
		Groups:             s.Groups,
		GroupDisks:         s.GroupDisks,
		Level:              lvl,
		ExtentBytes:        64 << 20,
		SpareDisks:         s.SpareDisks,
		CacheBytes:         s.CacheMB << 20,
		RespGoal:           s.RespGoalMs / 1000,
		Seed:               s.Seed,
		ExpectedRotLatency: true,
	}
	if len(s.Events) > 0 || s.Rates.TransientProb > 0 || s.Rates.SpinUpFailProb > 0 {
		cfg.Faults = &fault.Schedule{
			Events: append([]fault.Event(nil), s.Events...),
			Rates:  s.Rates,
		}
	}
	cfg.Retry = s.Retry
	return cfg, nil
}

// epoch returns the hibernator/pdc re-planning period.
func (s *Scenario) epoch() float64 {
	frac := s.EpochFrac
	if frac == 0 {
		frac = 0.25
	}
	return s.Duration * frac
}

// controller builds the scenario's policy, wrapped with the bug hook when
// armed. The wrapper forwards the optional sim interfaces, so wrapping is
// behavior-preserving for every scheme (including MAID's Router).
func (s *Scenario) controller() (sim.Controller, error) {
	var ctrl sim.Controller
	switch s.Scheme {
	case "base":
		ctrl = policy.NewBase()
	case "tpm":
		ctrl = policy.NewTPM(0)
	case "drpm":
		ctrl = policy.NewDRPM()
	case "pdc":
		p := policy.NewPDC()
		p.Epoch = s.epoch()
		ctrl = p
	case "maid":
		ctrl = policy.NewMAID()
	case "hibernator":
		ctrl = hibernator.New(hibernator.Options{Epoch: s.epoch()})
	default:
		return nil, fmt.Errorf("chaos: unknown scheme %q", s.Scheme)
	}
	if s.BugEnergySkew != 0 {
		ctrl = &bugController{inner: ctrl, at: s.BugSkewAt, joules: s.BugEnergySkew, disk: s.BugSkewDisk}
	}
	return ctrl, nil
}

// source builds the scenario's workload generator sized to the array.
func (s *Scenario) source(cfg sim.Config) (trace.Source, error) {
	vol, err := sim.LogicalBytes(cfg)
	if err != nil {
		return nil, err
	}
	switch s.Workload {
	case "oltp":
		return trace.NewOLTP(trace.OLTPConfig{
			Seed: s.Seed + 11, VolumeBytes: vol, Duration: s.Duration, MaxRate: s.Rate,
		})
	case "cello":
		return trace.NewCello(trace.CelloConfig{
			Seed: s.Seed + 11, VolumeBytes: vol, Duration: s.Duration,
			DayPeriod: s.Duration, DayRate: s.Rate,
		})
	}
	return nil, fmt.Errorf("chaos: unknown workload %q", s.Workload)
}

// bugController wraps the scenario's policy and injects the deliberate
// energy-ledger skew at its scheduled time. It forwards the optional
// observer/router interfaces so wrapping never changes request routing.
type bugController struct {
	inner  sim.Controller
	at     float64
	joules float64
	disk   int
}

// Name implements sim.Controller.
func (b *bugController) Name() string { return b.inner.Name() }

// Init implements sim.Controller: it initializes the wrapped policy and
// schedules the phantom-energy deposit.
func (b *bugController) Init(env *sim.Env) {
	b.inner.Init(env)
	env.Engine.At(b.at, func() {
		disks := env.Array.Disks()
		d := disks[b.disk%len(disks)]
		d.Account().AddEnergy("idle", b.joules)
	})
}

// OnArrival forwards to the wrapped policy when it observes arrivals.
func (b *bugController) OnArrival(r trace.Request) {
	if o, ok := b.inner.(sim.ArrivalObserver); ok {
		o.OnArrival(r)
	}
}

// OnComplete forwards to the wrapped policy when it observes completions.
func (b *bugController) OnComplete(latency float64, write bool) {
	if o, ok := b.inner.(sim.CompletionObserver); ok {
		o.OnComplete(latency, write)
	}
}

// Route forwards to the wrapped policy when it routes requests (MAID).
func (b *bugController) Route(r trace.Request, finish func()) bool {
	if o, ok := b.inner.(sim.Router); ok {
		return o.Route(r, finish)
	}
	return false
}
