package diskmodel

import (
	"fmt"
	"math/rand"

	"hibernator/internal/simevent"
	"hibernator/internal/stats"
)

// State enumerates the disk's operating modes.
type State int

// Disk states. Transitions: Standby <-> (SpinningUp/SpinningDown) <-> Idle
// <-> Busy, with ShiftingSpeed reachable from Idle.
const (
	Standby State = iota
	SpinningUp
	SpinningDown
	Idle
	Busy
	ShiftingSpeed
	// Failed disks reject all work and draw no power; they never recover
	// (recovery is a rebuild onto another drive at the array layer).
	Failed
)

// String returns the accounting name of the state.
func (s State) String() string {
	switch s {
	case Standby:
		return "standby"
	case SpinningUp:
		return "spinup"
	case SpinningDown:
		return "spindown"
	case Idle:
		return "idle"
	case Busy:
		return "active"
	case ShiftingSpeed:
		return "shift"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Request is one physical disk I/O. The array layer builds these from
// logical volume requests.
type Request struct {
	LBA   int64
	Size  int64
	Write bool

	// Background requests (migration, destage) are served only when no
	// foreground request is queued.
	Background bool

	// Done is invoked exactly once, at completion time. Disk sets Arrive
	// and Start, and sets Failed when the disk died before the request
	// could be served.
	Done func(r *Request, completedAt float64)

	Arrive float64
	Start  float64
	Failed bool
	// Errored marks a transient I/O error: the operation consumed its
	// full service time but did not succeed. Unlike Failed the disk is
	// still alive, so the caller may retry (see the fault models in
	// faults.go and the array layer's retry policy).
	Errored bool
}

// Scheduler selects how the disk orders queued foreground requests.
type Scheduler int

// Queue disciplines.
const (
	// FCFS serves requests in arrival order.
	FCFS Scheduler = iota
	// SPTF (shortest positioning time first) serves the queued request
	// closest to the head next. It improves throughput under load at the
	// cost of potential starvation of far-away requests.
	SPTF
)

// Config controls per-disk instantiation.
type Config struct {
	ID   int
	Seed int64
	// InitialLevel indexes Spec.RPM; disks start spinning and idle.
	InitialLevel int
	// ExpectedRotLatency replaces the random rotational delay with its
	// mean, for deterministic tests and analytic cross-checks.
	ExpectedRotLatency bool
	// Scheduler is the queue discipline (default FCFS). Background
	// requests always yield to foreground ones regardless.
	Scheduler Scheduler
}

// Observer receives every disk state transition as it happens. It exists
// for verification layers (internal/invariant) that shadow the disk's own
// accounting; a nil observer costs one pointer compare per transition and
// nothing else.
type Observer interface {
	// DiskTransition fires from inside the state change, after the disk's
	// fields (state, level, targetLevel) reflect the new state. power is the
	// draw the disk charged for the interval it is entering.
	DiskTransition(d *Disk, t float64, from, to State, power float64)
}

// Disk simulates one multi-speed drive: FCFS service with a foreground and
// a background queue, explicit spin and speed transitions, and full energy
// accounting.
type Disk struct {
	spec   *Spec
	engine *simevent.Engine
	cfg    Config
	rng    *rand.Rand

	state       State
	level       int // current RPM level (meaningful unless Standby)
	targetLevel int // pending speed-change destination
	wantWake    bool

	fg, bg   queue
	current  *Request
	inflight simevent.Event
	headLBA  int64
	// curSvc is the in-flight request's service time. completeFn is the
	// in-flight completion event's callback: a disk serves one request at
	// a time, so a single callback bound on first use serves every
	// request without a per-request closure.
	curSvc     float64
	completeFn func()

	idleSince float64
	account   *stats.StateAccount
	observer  Observer

	// faults is nil until a fault model is armed (see faults.go); the
	// healthy fast path never touches it beyond a nil check.
	faults *faultState

	completed     uint64
	bytesRead     uint64
	bytesWritten  uint64
	busyTime      float64
	svcMoments    stats.Welford // observed service times
	sizeMoments   stats.Welford // observed request sizes
	respTimes     stats.Welford // disk-level response times (queue + service)
	posMoments    stats.Welford // observed positioning time (overhead + seek)
	seqForeground uint64        // foreground requests that were strictly sequential
	curPos        float64       // positioning time of the in-flight request
	curSeq        bool          // in-flight request was sequential
	spinUps       uint64
	spinDowns     uint64
	levelShifts   uint64
	bgCompleted   uint64
	maxQueueDepth int
	// rotDraws counts rotational-latency draws from the service-time RNG.
	// Snapshots record it as the stream position (see FaultRNGDraws).
	rotDraws uint64
}

// queue is a FIFO of requests with O(1) amortized push/pop.
type queue struct {
	items []*Request
	head  int
}

func (q *queue) push(r *Request) { q.items = append(q.items, r) }

func (q *queue) pop() *Request {
	if q.head >= len(q.items) {
		return nil
	}
	r := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return r
}

func (q *queue) len() int { return len(q.items) - q.head }

// popNearest removes and returns the request whose LBA is closest to the
// head position (SPTF), or nil when empty.
func (q *queue) popNearest(head int64) *Request {
	if q.head >= len(q.items) {
		return nil
	}
	best := q.head
	bestDist := int64(-1)
	for i := q.head; i < len(q.items); i++ {
		d := q.items[i].LBA - head
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	r := q.items[best]
	// Preserve arrival order of the remainder by shifting.
	copy(q.items[best:], q.items[best+1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return r
}

// New creates a spinning, idle disk. The spec must validate.
func New(engine *simevent.Engine, spec *Spec, cfg Config) *Disk {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if cfg.InitialLevel < 0 || cfg.InitialLevel >= spec.Levels() {
		panic(fmt.Sprintf("diskmodel: initial level %d outside [0,%d)", cfg.InitialLevel, spec.Levels()))
	}
	d := &Disk{
		spec:        spec,
		engine:      engine,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		state:       Idle,
		level:       cfg.InitialLevel,
		targetLevel: cfg.InitialLevel,
		idleSince:   engine.Now(),
	}
	d.account = stats.NewStateAccount(engine.Now(), Idle.String(), spec.IdlePower[d.level])
	return d
}

// ID returns the configured disk identifier.
func (d *Disk) ID() int { return d.cfg.ID }

// Spec returns the disk's model parameters.
func (d *Disk) Spec() *Spec { return d.spec }

// State returns the current operating state.
func (d *Disk) State() State { return d.state }

// Level returns the current RPM level index. For a disk in Standby this is
// the level it will return to on spin-up.
func (d *Disk) Level() int { return d.level }

// TargetLevel returns the level the disk is heading to (equal to Level when
// no change is pending).
func (d *Disk) TargetLevel() int { return d.targetLevel }

// QueueLen returns the number of queued (not in-flight) requests.
func (d *Disk) QueueLen() int { return d.fg.len() + d.bg.len() }

// ForegroundQueueLen returns only the foreground backlog.
func (d *Disk) ForegroundQueueLen() int { return d.fg.len() }

// Busy reports whether a request is in service.
func (d *Disk) Busy() bool { return d.state == Busy }

// IdleFor returns how long the disk has been in Idle (0 if not idle).
func (d *Disk) IdleFor() float64 {
	if d.state != Idle {
		return 0
	}
	return d.engine.Now() - d.idleSince
}

// Account exposes the energy/state ledger.
func (d *Disk) Account() *stats.StateAccount { return d.account }

// SetObserver installs (or, with nil, removes) the transition observer.
func (d *Disk) SetObserver(o Observer) { d.observer = o }

// Completed returns the number of finished requests.
func (d *Disk) Completed() uint64 { return d.completed }

// BackgroundCompleted returns the number of finished background requests.
func (d *Disk) BackgroundCompleted() uint64 { return d.bgCompleted }

// SpinUps returns the number of standby->spinning transitions.
func (d *Disk) SpinUps() uint64 { return d.spinUps }

// SpinDowns returns the number of spinning->standby transitions.
func (d *Disk) SpinDowns() uint64 { return d.spinDowns }

// LevelShifts returns the number of speed changes performed.
func (d *Disk) LevelShifts() uint64 { return d.levelShifts }

// BusyTime returns cumulative seconds spent serving requests.
func (d *Disk) BusyTime() float64 { return d.busyTime }

// ServiceMoments returns the observed service-time accumulator.
func (d *Disk) ServiceMoments() *stats.Welford { return &d.svcMoments }

// SizeMoments returns the observed request-size accumulator.
func (d *Disk) SizeMoments() *stats.Welford { return &d.sizeMoments }

// ResponseMoments returns observed disk-level response times.
func (d *Disk) ResponseMoments() *stats.Welford { return &d.respTimes }

// PositionMoments returns the observed positioning time (controller
// overhead + seek) of foreground requests — the level-independent part of
// service time, which calibrates the CR optimizer's per-level predictions.
func (d *Disk) PositionMoments() *stats.Welford { return &d.posMoments }

// SequentialForeground returns how many foreground requests were strictly
// sequential (paying neither seek nor rotational latency).
func (d *Disk) SequentialForeground() uint64 { return d.seqForeground }

// MaxQueueDepth returns the high-water mark of the queue.
func (d *Disk) MaxQueueDepth() int { return d.maxQueueDepth }

// BytesMoved returns total bytes read and written.
func (d *Disk) BytesMoved() (read, written uint64) { return d.bytesRead, d.bytesWritten }

// RotLatencyDraws reports the service-time RNG's stream position: how
// many rotational-latency draws the disk has consumed (always 0 with
// ExpectedRotLatency). The stream is a pure function of (seed, draws),
// so snapshots record the count to pin the generator's future.
func (d *Disk) RotLatencyDraws() uint64 { return d.rotDraws }

// Submit enqueues a request. A standby (or spinning-down) disk wakes
// automatically, so callers never deadlock, but they pay the spin-up delay.
func (d *Disk) Submit(r *Request) {
	if r.LBA < 0 || r.Size <= 0 || r.LBA+r.Size > d.spec.CapacityBytes {
		panic(fmt.Sprintf("diskmodel: request [%d,+%d) outside capacity %d", r.LBA, r.Size, d.spec.CapacityBytes))
	}
	if r.Done == nil {
		panic("diskmodel: request without completion callback")
	}
	if d.state == Failed {
		r.Arrive = d.engine.Now()
		r.Failed = true
		d.engine.At(r.Arrive, func() { r.Done(r, d.engine.Now()) })
		return
	}
	r.Arrive = d.engine.Now()
	if r.Background {
		d.bg.push(r)
	} else {
		d.fg.push(r)
	}
	if q := d.QueueLen(); q > d.maxQueueDepth {
		d.maxQueueDepth = q
	}
	switch d.state {
	case Idle:
		d.startNext()
	case Standby:
		d.beginSpinUp()
	case SpinningDown:
		d.wantWake = true
	case SpinningUp, Busy, ShiftingSpeed:
		// Served when the transition or current request finishes.
	}
}

// SetTargetLevel requests a speed change. It takes effect immediately when
// the disk is idle; a busy disk finishes its in-flight request first, then
// shifts (queued requests wait out the shift — the cost Hibernator's
// coarse-grained epochs amortize). For a standby disk the new level applies
// at the next spin-up. Requests to the current level cancel any pending
// change.
func (d *Disk) SetTargetLevel(level int) {
	if level < 0 || level >= d.spec.Levels() {
		panic(fmt.Sprintf("diskmodel: level %d outside [0,%d)", level, d.spec.Levels()))
	}
	if d.state == Failed {
		return
	}
	d.targetLevel = level
	switch d.state {
	case Idle:
		if level != d.level {
			d.beginShift()
		}
	case Standby, SpinningDown:
		// Applied on wake.
		d.level = level
	case Busy, SpinningUp, ShiftingSpeed:
		// Applied when the current activity completes.
	}
}

// Standby spins the disk down. It succeeds only from Idle with an empty
// queue and reports whether the spin-down started.
func (d *Disk) Standby() bool {
	if d.state != Idle || d.QueueLen() > 0 {
		return false
	}
	d.spinDowns++
	d.setState(SpinningDown, d.spec.SpinDownEnergy/d.spec.SpinDownTime)
	d.engine.Schedule(d.spec.SpinDownTime, func() {
		if d.state == Failed {
			return
		}
		d.setState(Standby, d.spec.StandbyPower)
		if d.wantWake || d.QueueLen() > 0 {
			d.wantWake = false
			d.beginSpinUp()
		}
	})
	return true
}

// SpinUp wakes a standby disk proactively. No-op in any other state.
func (d *Disk) SpinUp() {
	if d.state == Standby {
		d.beginSpinUp()
	}
	if d.state == SpinningDown {
		d.wantWake = true
	}
}

func (d *Disk) beginSpinUp() { d.spinUpAttempt(0) }

// spinUpAttempt runs one spin-up try. With the spin-up fault armed each
// attempt pays the full spin-up time and energy and may fail; after the
// bounded retries are exhausted the disk is declared dead.
func (d *Disk) spinUpAttempt(attempt int) {
	d.spinUps++
	d.level = d.targetLevel
	d.setState(SpinningUp, d.spec.SpinUpEnergy/d.spec.SpinUpTime)
	d.engine.Schedule(d.spec.SpinUpTime, func() {
		if d.state == Failed {
			return
		}
		if d.spinUpFails() {
			if attempt >= d.faults.spinRetries {
				d.Fail()
				return
			}
			d.spinUpAttempt(attempt + 1)
			return
		}
		d.becomeIdleThenWork()
	})
}

func (d *Disk) beginShift() {
	// Capture the destination: if the target changes mid-shift the disk
	// still lands here first, then becomeIdleThenWork starts a new shift.
	dest := d.targetLevel
	dur, joules := d.spec.LevelShift(d.level, dest)
	hi := d.level
	if dest > hi {
		hi = dest
	}
	d.levelShifts++
	d.setState(ShiftingSpeed, d.spec.IdlePower[hi])
	d.account.AddEnergy(ShiftingSpeed.String(), joules)
	d.engine.Schedule(dur, func() {
		if d.state == Failed {
			return
		}
		d.level = dest
		d.becomeIdleThenWork()
	})
}

// becomeIdleThenWork lands the disk in Idle and immediately dispatches any
// pending work or follow-up transition.
func (d *Disk) becomeIdleThenWork() {
	d.setState(Idle, d.spec.IdlePower[d.level])
	d.idleSince = d.engine.Now()
	if d.targetLevel != d.level {
		d.beginShift()
		return
	}
	if d.QueueLen() > 0 {
		d.startNext()
	}
}

func (d *Disk) startNext() {
	var r *Request
	if d.cfg.Scheduler == SPTF {
		r = d.fg.popNearest(d.headLBA)
		if r == nil {
			r = d.bg.popNearest(d.headLBA)
		}
	} else {
		r = d.fg.pop()
		if r == nil {
			r = d.bg.pop()
		}
	}
	if r == nil {
		return
	}
	now := d.engine.Now()
	r.Start = now
	d.current = r
	svc, pos, seq := d.serviceTime(r)
	d.curPos, d.curSeq, d.curSvc = pos, seq, svc
	d.setState(Busy, d.spec.ActivePower[d.level])
	if d.completeFn == nil {
		d.completeFn = d.complete
	}
	d.inflight = d.engine.At(now+svc, d.completeFn)
}

// complete finishes the in-flight request when its service time is up.
func (d *Disk) complete() {
	r, svc := d.current, d.curSvc
	now := d.engine.Now()
	d.current = nil
	d.inflight = simevent.Event{}
	d.completed++
	if r.Background {
		d.bgCompleted++
	}
	d.busyTime += svc
	if !r.Background {
		// Moment accumulators describe foreground traffic only: policies
		// feed them into queueing models of the workload, and migration
		// chunks would distort both size and service distributions.
		d.svcMoments.Add(svc)
		d.sizeMoments.Add(float64(r.Size))
		d.respTimes.Add(now - r.Arrive)
		d.posMoments.Add(d.curPos)
		if d.curSeq {
			d.seqForeground++
		}
	}
	if r.Write {
		d.bytesWritten += uint64(r.Size)
	} else {
		d.bytesRead += uint64(r.Size)
	}
	d.headLBA = r.LBA + r.Size
	r.Errored = d.faultOutcome(r)
	done := r.Done
	// Advance disk state before the callback so callbacks observe a
	// consistent disk and may immediately Submit or change speeds.
	if d.targetLevel != d.level {
		d.setState(Idle, d.spec.IdlePower[d.level])
		d.idleSince = now
		d.beginShift()
	} else if d.QueueLen() > 0 {
		d.startNext()
	} else {
		d.setState(Idle, d.spec.IdlePower[d.level])
		d.idleSince = now
	}
	done(r, now)
}

// serviceTime computes seek + rotation + transfer + overhead for the
// request at the current level. A strictly sequential access (starting
// exactly where the head stopped) pays neither seek nor rotational
// latency — the head is already positioned, which is what lets streaming
// transfers (and migrations) run at the media rate.
func (d *Disk) serviceTime(r *Request) (svc, pos float64, sequential bool) {
	distance := r.LBA - d.headLBA
	if distance < 0 {
		distance = -distance
	}
	var seek, latency float64
	if distance > 0 {
		frac := float64(distance) / float64(d.spec.CapacityBytes)
		seek = d.spec.SeekTime(frac)
		rot := d.spec.RotationPeriod(d.level)
		if d.cfg.ExpectedRotLatency {
			latency = rot / 2
		} else {
			d.rotDraws++
			latency = d.rng.Float64() * rot
		}
	}
	pos = d.spec.ControllerOverhead + seek
	xfer := d.spec.TransferTime(d.level, r.Size)
	// Fail-slow degradation stretches the mechanical parts of the service
	// (positioning and transfer); rotational latency is unaffected — the
	// spindle still turns at full rate, the heads and channel do not.
	if f := d.SlowFactor(); f > 1 {
		pos *= f
		xfer *= f
	}
	svc = pos + latency + xfer
	return svc, pos, distance == 0
}

func (d *Disk) setState(s State, power float64) {
	from := d.state
	d.state = s
	now := d.engine.Now()
	d.account.Transition(now, s.String(), power)
	if d.observer != nil {
		d.observer.DiskTransition(d, now, from, s, power)
	}
}

// Fail kills the disk: the in-flight request and everything queued
// complete immediately with Failed set, future submissions fail on
// arrival, and the drive draws no further power. Failure is permanent at
// this layer — recovery is a rebuild onto another drive.
func (d *Disk) Fail() {
	if d.state == Failed {
		return
	}
	var doomed []*Request
	if d.current != nil {
		d.engine.Cancel(d.inflight)
		doomed = append(doomed, d.current)
		d.current = nil
		d.inflight = simevent.Event{}
	}
	for r := d.fg.pop(); r != nil; r = d.fg.pop() {
		doomed = append(doomed, r)
	}
	for r := d.bg.pop(); r != nil; r = d.bg.pop() {
		doomed = append(doomed, r)
	}
	d.setState(Failed, 0)
	at := d.engine.Now()
	for _, r := range doomed {
		r := r
		r.Failed = true
		d.engine.At(at, func() { r.Done(r, d.engine.Now()) })
	}
}

// CloseAccounting finalizes the energy ledger at the current simulated
// time. Call once at the end of a run.
func (d *Disk) CloseAccounting() {
	d.account.Close(d.engine.Now())
}

// Energy returns total joules consumed up to the last accounting close or
// transition.
func (d *Disk) Energy() float64 { return d.account.TotalEnergy() }
