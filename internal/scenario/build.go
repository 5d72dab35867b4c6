package scenario

import (
	"fmt"

	"hibernator/internal/diskmodel"
	"hibernator/internal/fault"
	"hibernator/internal/hibernator"
	"hibernator/internal/policy"
	"hibernator/internal/raid"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// DiskSpec builds the disk model for a family and RPM level count:
// "enterprise" is the Ultrastar-class drive (single-speed at one level),
// "sff" the 2.5" low-power drive.
func DiskSpec(family string, levels int) (diskmodel.Spec, error) {
	switch family {
	case "enterprise":
		if levels > 1 {
			return diskmodel.MultiSpeedUltrastar(levels, 3000), nil
		}
		return diskmodel.SingleSpeedUltrastar(), nil
	case "sff":
		return diskmodel.MultiSpeedSFF(levels, 1800), nil
	}
	return diskmodel.Spec{}, fmt.Errorf("scenario: unknown disk family %q", family)
}

// RAIDLevel maps a textual RAID level: raid0, raid1 or raid5.
func RAIDLevel(name string) (raid.Level, error) {
	switch name {
	case "raid0":
		return raid.RAID0, nil
	case "raid1":
		return raid.RAID1, nil
	case "raid5":
		return raid.RAID5, nil
	}
	return 0, fmt.Errorf("scenario: unknown RAID level %q", name)
}

// NewController builds a scheme's policy: base, tpm, drpm, pdc, maid or
// hibernator. epoch is the pdc and hibernator re-planning period in
// simulated seconds; the other schemes ignore it. MAID needs spare disks
// in the config it runs on.
func NewController(scheme string, epoch float64) (sim.Controller, error) {
	switch scheme {
	case "base":
		return policy.NewBase(), nil
	case "tpm":
		return policy.NewTPM(0), nil
	case "drpm":
		return policy.NewDRPM(), nil
	case "pdc":
		p := policy.NewPDC()
		p.Epoch = epoch
		return p, nil
	case "maid":
		return policy.NewMAID(), nil
	case "hibernator":
		return hibernator.New(hibernator.Options{Epoch: epoch}), nil
	}
	return nil, fmt.Errorf("scenario: unknown scheme %q", scheme)
}

// NewWorkload builds a synthetic workload generator over volume bytes
// that runs for duration simulated seconds. For "oltp", rate is the mean
// request rate in req/s. For "cello", one diurnal day spans the whole
// run and rate is the day-peak burst rate (0 keeps the generator's
// default).
func NewWorkload(kind string, seed, volume int64, duration, rate float64) (trace.Source, error) {
	switch kind {
	case "oltp":
		return trace.NewOLTP(trace.OLTPConfig{
			Seed: seed, VolumeBytes: volume, Duration: duration, MaxRate: rate,
		})
	case "cello":
		return trace.NewCello(trace.CelloConfig{
			Seed: seed, VolumeBytes: volume, Duration: duration,
			DayPeriod: duration, DayRate: rate,
		})
	}
	return nil, fmt.Errorf("scenario: unknown workload %q", kind)
}

// Config translates the scenario into a sim.Config. No checker,
// observer, context or snapshot plumbing is armed: callers add what
// they need. The fault schedule is a fresh copy per call, and it is set
// only when the scenario has events or ambient rates.
func (s *Scenario) Config() (sim.Config, error) {
	spec, err := DiskSpec(s.Family, s.Levels)
	if err != nil {
		return sim.Config{}, err
	}
	lvl, err := RAIDLevel(s.RAID)
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

// Epoch returns the hibernator/pdc re-planning period in simulated
// seconds: EpochFrac of the duration, a quarter of it when EpochFrac is 0.
func (s *Scenario) Epoch() float64 {
	frac := s.EpochFrac
	if frac == 0 {
		frac = 0.25
	}
	return s.Duration * frac
}

// Source builds the scenario's workload generator over cfg's logical
// volume. Its seed is the simulation seed plus 11, so the request
// stream and the simulator's own draws stay independent.
func (s *Scenario) Source(cfg sim.Config) (trace.Source, error) {
	vol, err := sim.LogicalBytes(cfg)
	if err != nil {
		return nil, err
	}
	return NewWorkload(s.Workload, s.Seed+11, vol, s.Duration, s.Rate)
}

// controller builds the scenario's policy, wrapped with the bug hook when
// armed. The wrapper forwards the optional sim interfaces, so wrapping is
// behavior-preserving for every scheme (including MAID's Router).
func (s *Scenario) controller() (sim.Controller, error) {
	ctrl, err := NewController(s.Scheme, s.Epoch())
	if err != nil {
		return nil, err
	}
	if s.BugEnergySkew != 0 {
		ctrl = &bugController{inner: ctrl, at: s.BugSkewAt, joules: s.BugEnergySkew, disk: s.BugSkewDisk}
	}
	return ctrl, nil
}

// Run is a scenario materialized into everything sim.Run needs: the
// assembled config, workload source, controller, and duration. Callers
// (the chaos oracles, the job server, the benchmark) decorate Config —
// checker, context, watchdog, progress counter, observability, snapshot
// plumbing — and then call sim.Run themselves.
type Run struct {
	Config     sim.Config
	Source     trace.Source
	Controller sim.Controller
	Duration   float64
}

// BuildRun validates the scenario and assembles its Run. Each call
// builds fresh state (new RNGs, new fault schedule, new workload
// source), so one scenario can be materialized many times — every Run
// executes the same byte-identical simulation.
func (s *Scenario) BuildRun() (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	ctrl, err := s.controller()
	if err != nil {
		return nil, err
	}
	src, err := s.Source(cfg)
	if err != nil {
		return nil, err
	}
	return &Run{Config: cfg, Source: src, Controller: ctrl, Duration: s.Duration}, nil
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
