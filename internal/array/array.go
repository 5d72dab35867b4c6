// Package array simulates a disk array: disks organized into RAID groups,
// a logical volume mapped onto fixed-size extents that can migrate between
// groups, and request fan-out/fan-in with RAID-5 parity maintenance.
//
// Groups are the unit of speed control (all member disks spin at one
// level), matching Hibernator's tiered organization where each speed tier
// is built from whole RAID groups. A group of one disk with RAID-0 is a
// plain disk, the layout the PDC and MAID baselines assume.
package array

import (
	"fmt"

	"hibernator/internal/diskmodel"
	"hibernator/internal/obs"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
	"hibernator/internal/stats"
)

// Config describes an array.
type Config struct {
	Engine *simevent.Engine
	Spec   *diskmodel.Spec

	// Groups*GroupDisks data disks are created. Each group is one RAID
	// group of the given level.
	Groups     int
	GroupDisks int
	Level      raid.Level
	StripeUnit int64 // default 64 KiB

	// ExtentBytes is the migration granularity (default 64 MiB).
	ExtentBytes int64

	// Occupancy is the fraction of physical slots exposed as logical
	// capacity; the rest is headroom for migration (default 0.9).
	Occupancy float64

	// SpareDisks are extra drives outside any group (MAID cache disks).
	SpareDisks int

	Seed               int64
	InitialLevel       int
	ExpectedRotLatency bool
	// Scheduler is the per-disk queue discipline (default FCFS).
	Scheduler diskmodel.Scheduler

	// Retry governs transient-error retries, per-op deadlines and the
	// disk health tracker (see retry.go). The zero value disables all of
	// it, preserving the fault-free fast path bit for bit.
	Retry RetryPolicy

	// Trace, when non-nil, receives the array's decision events: retries,
	// timeouts, fallbacks, suspect/evict transitions, failures, rebuilds
	// and extent migrations. Emitting to a nil trace is a no-op.
	Trace *obs.Trace
}

func (c *Config) applyDefaults() error {
	if c.Engine == nil || c.Spec == nil {
		return fmt.Errorf("array: engine and spec are required")
	}
	if c.Groups <= 0 || c.GroupDisks <= 0 {
		return fmt.Errorf("array: need positive groups (%d) and disks per group (%d)", c.Groups, c.GroupDisks)
	}
	if c.StripeUnit == 0 {
		c.StripeUnit = 64 << 10
	}
	if c.ExtentBytes == 0 {
		c.ExtentBytes = 64 << 20
	}
	if c.ExtentBytes <= 0 || c.StripeUnit <= 0 {
		return fmt.Errorf("array: extent/stripe sizes must be positive")
	}
	if c.Occupancy == 0 {
		c.Occupancy = 0.9
	}
	if c.Occupancy <= 0 || c.Occupancy > 1 {
		return fmt.Errorf("array: occupancy %v outside (0,1]", c.Occupancy)
	}
	if c.SpareDisks < 0 {
		return fmt.Errorf("array: negative spare disks")
	}
	geo := raid.Geometry{Level: c.Level, Disks: c.GroupDisks, StripeUnit: c.StripeUnit}
	if err := geo.Validate(); err != nil {
		return err
	}
	if geo.LogicalCapacity(c.Spec.CapacityBytes) < c.ExtentBytes {
		return fmt.Errorf("array: extent size %d exceeds group capacity %d",
			c.ExtentBytes, geo.LogicalCapacity(c.Spec.CapacityBytes))
	}
	return nil
}

// Location places a logical extent inside a group.
type Location struct {
	Group int
	Slot  int64 // physical extent slot within the group's logical space
}

// Array is the simulated disk array.
type Array struct {
	cfg    Config
	engine *simevent.Engine
	geo    raid.Geometry

	groups []*Group
	spares []*diskmodel.Disk

	// all holds every drive ever created, in creation order (index ==
	// Disk.ID()). Rebuilds swap a spare into a group and move the dead
	// drive to retired, but neither ever leaves all: energy and activity
	// sums over Disks() stay conservation-complete across the swap.
	all     []*diskmodel.Disk
	retired []*diskmodel.Disk

	extentMap []Location // logical extent -> location
	numExtent int

	resp      stats.Welford
	respPct   *stats.Reservoir
	completed uint64
	inFlight  int
	fanoutIOs uint64 // physical ops from logical traffic (excl. migration)

	migrations     uint64
	migratedBytes  uint64
	migrating      map[int]bool
	lostIOs        uint64
	diskFailures   uint64
	rebuilds       uint64
	faultStats     FaultStats
	extentAccesses []uint64 // lifetime per-extent access counts

	// onComplete, if set, observes every finished logical request.
	onComplete func(latency float64, write bool)

	// auditor, if set, receives accounting events (see audit.go).
	auditor Auditor

	// Free lists of recycled per-I/O op state (io.go, retry.go) and the
	// RAID mapping scratch buffer. All start empty and grow to the run's
	// peak concurrency.
	freeLogical *logicalOp
	freePhys    *physOp
	mapBuf      []raid.PhysIO
}

// New builds the array with extents laid out round-robin across groups
// (so the initial layout spreads load evenly, matching a striped volume).
func New(cfg Config) (*Array, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	geo := raid.Geometry{Level: cfg.Level, Disks: cfg.GroupDisks, StripeUnit: cfg.StripeUnit}
	a := &Array{
		cfg:     cfg,
		engine:  cfg.Engine,
		geo:     geo,
		respPct: stats.NewReservoir(8192, cfg.Seed+7919),
	}
	diskID := 0
	for gi := 0; gi < cfg.Groups; gi++ {
		g := &Group{id: gi, geo: geo, array: a}
		for di := 0; di < cfg.GroupDisks; di++ {
			d := diskmodel.New(cfg.Engine, cfg.Spec, diskmodel.Config{
				ID:                 diskID,
				Seed:               cfg.Seed + int64(diskID)*104729,
				InitialLevel:       cfg.InitialLevel,
				ExpectedRotLatency: cfg.ExpectedRotLatency,
				Scheduler:          cfg.Scheduler,
			})
			g.disks = append(g.disks, d)
			a.all = append(a.all, d)
			diskID++
		}
		slots := geo.LogicalCapacity(cfg.Spec.CapacityBytes) / cfg.ExtentBytes
		g.slotUsed = make([]bool, slots)
		a.groups = append(a.groups, g)
	}
	for si := 0; si < cfg.SpareDisks; si++ {
		d := diskmodel.New(cfg.Engine, cfg.Spec, diskmodel.Config{
			ID:                 diskID,
			Seed:               cfg.Seed + int64(diskID)*104729,
			InitialLevel:       cfg.InitialLevel,
			ExpectedRotLatency: cfg.ExpectedRotLatency,
			Scheduler:          cfg.Scheduler,
		})
		a.spares = append(a.spares, d)
		a.all = append(a.all, d)
		diskID++
	}
	totalSlots := 0
	for _, g := range a.groups {
		totalSlots += len(g.slotUsed)
	}
	a.numExtent = int(float64(totalSlots) * cfg.Occupancy)
	if a.numExtent == 0 {
		return nil, fmt.Errorf("array: zero logical extents (occupancy too low)")
	}
	a.extentMap = make([]Location, a.numExtent)
	a.extentAccesses = make([]uint64, a.numExtent)
	// Round-robin placement across groups, ascending slots within a group.
	next := make([]int64, len(a.groups))
	gi := 0
	for e := 0; e < a.numExtent; e++ {
		for int(next[gi]) >= len(a.groups[gi].slotUsed) {
			gi = (gi + 1) % len(a.groups)
		}
		a.extentMap[e] = Location{Group: gi, Slot: next[gi]}
		a.groups[gi].slotUsed[next[gi]] = true
		a.groups[gi].used++
		next[gi]++
		gi = (gi + 1) % len(a.groups)
	}
	return a, nil
}

// Engine returns the simulation engine the array schedules on.
func (a *Array) Engine() *simevent.Engine { return a.engine }

// Spec returns the member disk model.
func (a *Array) Spec() *diskmodel.Spec { return a.cfg.Spec }

// Groups returns the RAID groups.
func (a *Array) Groups() []*Group { return a.groups }

// Spares returns the spare disks (outside any group).
func (a *Array) Spares() []*diskmodel.Disk { return a.spares }

// Disks returns every drive ever created — group members, pool spares, a
// spare mid-rebuild and retired (failed-and-replaced) drives — in creation
// order, so index == Disk.ID(). Summing energy or activity over Disks() is
// conservation-complete: a drive's history never vanishes from the totals
// when a rebuild swaps it out of its group, which the old members+spares
// reconstruction silently allowed.
func (a *Array) Disks() []*diskmodel.Disk {
	return append([]*diskmodel.Disk(nil), a.all...)
}

// Retired returns drives that failed and were replaced by a rebuild.
func (a *Array) Retired() []*diskmodel.Disk { return a.retired }

// LocateDisk maps a global disk ID (as reported by Disk.ID) to its group
// and member index. Spares are not members of any group: ok is false.
func (a *Array) LocateDisk(id int) (group, member int, ok bool) {
	for gi, g := range a.groups {
		for di, d := range g.disks {
			if d.ID() == id {
				return gi, di, true
			}
		}
	}
	return 0, 0, false
}

// DiskByID finds any disk (member, spare or retired) by its global ID.
func (a *Array) DiskByID(id int) *diskmodel.Disk {
	for _, d := range a.all {
		if d.ID() == id {
			return d
		}
	}
	return nil
}

// GroupHealthy reports whether group gi has no failed or suspect members
// and no rebuild in flight.
func (a *Array) GroupHealthy(gi int) bool {
	return a.groups[gi].Healthy()
}

// FaultAware reports whether the retry/health policy is armed. Power
// policies consult it before activating their own fault reactions, so a
// zero RetryPolicy preserves legacy fail-stop behavior bit-for-bit —
// the same contract the Failed-op redirect in retry.go keeps.
func (a *Array) FaultAware() bool { return a.cfg.Retry.enabled() }

// Unhealthy reports whether any group is degraded, suspect or rebuilding —
// the signal fault-aware policies treat as a standing threat to the goal.
func (a *Array) Unhealthy() bool {
	for _, g := range a.groups {
		if !g.Healthy() {
			return true
		}
	}
	return false
}

// RebuildActive reports whether any group is currently rebuilding.
func (a *Array) RebuildActive() bool {
	for _, g := range a.groups {
		if g.rebuilding {
			return true
		}
	}
	return false
}

// ExtentBytes returns the migration granularity.
func (a *Array) ExtentBytes() int64 { return a.cfg.ExtentBytes }

// NumExtents returns the number of logical extents.
func (a *Array) NumExtents() int { return a.numExtent }

// LogicalBytes returns the size of the logical volume.
func (a *Array) LogicalBytes() int64 { return int64(a.numExtent) * a.cfg.ExtentBytes }

// ExtentLocation returns where a logical extent currently lives.
func (a *Array) ExtentLocation(e int) Location {
	return a.extentMap[e]
}

// ExtentAccesses returns the lifetime access count of an extent.
func (a *Array) ExtentAccesses(e int) uint64 { return a.extentAccesses[e] }

// SetOnComplete registers an observer for finished logical requests.
func (a *Array) SetOnComplete(fn func(latency float64, write bool)) { a.onComplete = fn }

// ResponseMoments returns the lifetime response-time accumulator.
func (a *Array) ResponseMoments() *stats.Welford { return &a.resp }

// ResponseQuantile estimates a response-time quantile over the whole run.
func (a *Array) ResponseQuantile(q float64) float64 { return a.respPct.Quantile(q) }

// Completed returns the number of finished logical requests.
func (a *Array) Completed() uint64 { return a.completed }

// InFlight returns the number of logical requests currently outstanding.
func (a *Array) InFlight() int { return a.inFlight }

// Migrations returns completed extent migrations and bytes moved.
func (a *Array) Migrations() (count, bytes uint64) { return a.migrations, a.migratedBytes }

// InFlightMigrations returns how many extents are mid-move right now (a
// swap holds both of its extents in the set until it completes).
func (a *Array) InFlightMigrations() int { return len(a.migrating) }

// FanoutIOs returns the number of physical disk operations generated by
// logical traffic (foreground and destage), excluding migration I/O.
// Dividing by the summed extent accesses gives the logical-to-physical
// amplification factor the CR optimizer needs.
func (a *Array) FanoutIOs() uint64 { return a.fanoutIOs }

// EnergyAt returns the joules all disks will have consumed at time t
// without mutating any accounting — unlike TotalEnergy, which closes
// each ledger and thereby splits the open interval's floating-point
// accrual. Snapshot capture must be a pure read, so it uses this.
func (a *Array) EnergyAt(t float64) float64 {
	sum := 0.0
	for _, d := range a.all {
		sum += d.Account().EnergyAt(t)
	}
	return sum
}

// LayoutFingerprint digests the array's placement state: the extent map
// in logical order, each group's slot-usage count, and the set of
// extents currently mid-migration in ascending order. Two arrays with
// equal fingerprints route every future request identically.
func (a *Array) LayoutFingerprint() uint64 {
	const prime = 1099511628211
	mix := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
		return h
	}
	h := mix(14695981039346656037, uint64(a.numExtent))
	for _, loc := range a.extentMap {
		h = mix(h, uint64(loc.Group))
		h = mix(h, uint64(loc.Slot))
	}
	for _, g := range a.groups {
		h = mix(h, uint64(g.used))
	}
	migrating := make([]int, 0, len(a.migrating))
	for e := range a.migrating {
		migrating = append(migrating, e)
	}
	for i := 1; i < len(migrating); i++ { // insertion sort: the set is tiny
		for j := i; j > 0 && migrating[j] < migrating[j-1]; j-- {
			migrating[j], migrating[j-1] = migrating[j-1], migrating[j]
		}
	}
	for _, e := range migrating {
		h = mix(h, uint64(e))
	}
	return h
}

// TotalEnergy closes accounting on every disk and sums joules.
func (a *Array) TotalEnergy() float64 {
	sum := 0.0
	for _, d := range a.Disks() {
		d.CloseAccounting()
		sum += d.Energy()
	}
	return sum
}

// EnergyByState aggregates the per-state energy ledger across all disks.
func (a *Array) EnergyByState() map[string]float64 {
	out := map[string]float64{}
	for _, d := range a.Disks() {
		d.CloseAccounting()
		for k, v := range d.Account().EnergyByState() {
			out[k] += v
		}
	}
	return out
}
