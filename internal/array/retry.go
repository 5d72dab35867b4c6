package array

import (
	"hibernator/internal/diskmodel"
	"hibernator/internal/obs"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
)

// RetryPolicy governs how the array reacts to transient physical-op
// errors and slow disks. The zero value disables everything: no retries,
// no deadlines, no health tracking — the array behaves exactly as if this
// type did not exist, which keeps zero-fault runs byte-identical.
//
// With faults armed, an op that completes with a transient error is
// retried on the same disk up to MaxRetries times, waiting
// Backoff*BackoffFactor^attempt simulated seconds before each retry.
// When retries exhaust (or on a deadline expiry) the op is served through
// the group's redundancy instead: RAID-5 reconstruct from the survivors,
// RAID-1 mirror read, RAID-0 data loss.
type RetryPolicy struct {
	// MaxRetries is how many same-disk retries follow a failed attempt.
	MaxRetries int
	// Backoff is the simulated-time delay before the first retry.
	Backoff float64
	// BackoffFactor multiplies the delay per subsequent retry
	// (1 = fixed backoff; 0 defaults to 1).
	BackoffFactor float64
	// OpDeadline bounds each attempt (queue wait + service). An attempt
	// that has not completed by then is abandoned — counted as a timeout,
	// served through redundancy — and its eventual completion is ignored.
	// 0 disables deadlines.
	OpDeadline float64

	// SuspectAfter marks a disk suspect once it has produced that many
	// errors (transient errors + timeouts). Suspect groups are avoided by
	// fault-aware policies. 0 disables.
	SuspectAfter int
	// EvictAfter evicts a disk (through the FailDisk path, triggering
	// degraded mode) once its error count reaches this. Eviction is
	// refused when it would lose data (e.g. RAID-5 already degraded); the
	// disk then stays suspect. 0 disables.
	EvictAfter int
	// AutoRebuild starts a background rebuild onto the first healthy
	// spare whenever a group member fails (injected or evicted).
	AutoRebuild bool
}

// enabled reports whether any part of the policy is armed; the Failed
// redirect below is gated on it so that legacy fail-stop behavior (X3)
// is bit-preserved when the policy is zero.
func (p *RetryPolicy) enabled() bool {
	return p.MaxRetries > 0 || p.OpDeadline > 0 || p.SuspectAfter > 0 || p.EvictAfter > 0 || p.AutoRebuild
}

// delay returns the backoff before retry number attempt+1 (0-based).
func (p *RetryPolicy) delay(attempt int) float64 {
	if p.Backoff <= 0 {
		return 0
	}
	f := p.BackoffFactor
	if f <= 0 {
		f = 1
	}
	d := p.Backoff
	for i := 0; i < attempt; i++ {
		d *= f
	}
	return d
}

// FaultStats aggregates the array's fault-handling counters.
type FaultStats struct {
	OpErrors  uint64 // physical ops that completed with a transient error
	Retries   uint64 // same-disk retries issued
	Timeouts  uint64 // attempts abandoned at the op deadline
	Fallbacks uint64 // ops served through redundancy after retries/timeouts
	Evictions uint64 // disks evicted by the error tracker or health policy
}

// FaultStats returns the fault-handling counters.
func (a *Array) FaultStats() FaultStats { return a.faultStats }

// physOp is one member-disk op chain: the attempts of a single physical
// operation, retries included. It embeds the diskmodel.Request the disk
// queues and binds its completion, deadline and retry callbacks once, so
// an attempt allocates nothing. Ops are owned by their Array and recycled
// through its free list (see DESIGN.md, "Op free lists"). An op goes back
// only after the disk has returned its request AND its deadline has been
// cancelled or has fired: an attempt the deadline abandoned stays owned
// until the disk completes it, since the disk still holds &req.
type physOp struct {
	a          *Array
	g          *Group
	disk       int
	io         raid.PhysIO
	background bool
	attempt    int
	// settled is set once the attempt's outcome is decided, by the disk
	// completion or by the deadline giving up on it.
	settled  bool
	deadline simevent.Event
	onDone   func()
	req      diskmodel.Request

	doneFn              func(*diskmodel.Request, float64)
	deadlineFn, retryFn func()
	next                *physOp
}

// submitOne issues a single physical op on a specific member disk,
// applying the retry policy. onDone fires exactly once per op chain.
func (a *Array) submitOne(g *Group, disk int, io raid.PhysIO, background bool, onDone func()) {
	p := a.freePhys
	if p == nil {
		p = &physOp{a: a}
		p.doneFn, p.deadlineFn, p.retryFn = p.diskDone, p.expire, p.retry
	} else {
		a.freePhys = p.next
		p.next = nil
	}
	p.g, p.disk, p.io, p.background, p.attempt, p.onDone = g, disk, io, background, 0, onDone
	p.submit()
}

// release returns the op to the array's free list.
func (p *physOp) release() {
	a := p.a
	p.g, p.onDone = nil, nil
	p.next = a.freePhys
	a.freePhys = p
}

// submit is one try of the op: hand the request to the disk and watch the
// deadline. Exactly one of the completion and the deadline settles the
// attempt.
func (p *physOp) submit() {
	p.settled = false
	p.deadline = simevent.Event{}
	p.req = diskmodel.Request{
		LBA:        p.io.Offset,
		Size:       p.io.Size,
		Write:      p.io.Write,
		Background: p.background,
		Done:       p.doneFn,
	}
	p.g.disks[p.disk].Submit(&p.req)
	if d := p.a.cfg.Retry.OpDeadline; d > 0 {
		p.deadline = p.a.engine.Schedule(d, p.deadlineFn)
	}
}

// retry resubmits the op after its backoff.
func (p *physOp) retry() {
	p.attempt++
	p.submit()
}

// settle claims the attempt's outcome, cancelling the deadline if it is
// still pending. It reports false when the outcome was already claimed.
func (p *physOp) settle() bool {
	if p.settled {
		return false
	}
	p.settled = true
	if p.deadline.Pending() {
		p.a.engine.Cancel(p.deadline)
	}
	return true
}

// diskDone is the request's completion callback: on a transient error it
// either backs off and retries or falls back to the group's redundancy.
func (p *physOp) diskDone(r *diskmodel.Request, _ float64) {
	a := p.a
	pol := &a.cfg.Retry
	if p.g == nil {
		panic("array: disk completed a request whose op was already released")
	}
	if !p.settle() {
		// The deadline already gave up on this attempt; the disk has now
		// returned the request, so the op is free.
		p.release()
		return
	}
	g, disk, io, background, attempt, onDone := p.g, p.disk, p.io, p.background, p.attempt, p.onDone
	if r.Failed {
		p.release()
		// The disk died underneath us. With the policy armed the op is
		// re-served through redundancy; without it the legacy behavior
		// stands (completion counted, data loss accounted by the caller's
		// level).
		if pol.enabled() {
			a.redirect(g, disk, io, background, onDone)
		} else {
			onDone()
		}
		return
	}
	if r.Errored {
		a.faultStats.OpErrors++
		a.noteError(g, disk)
		if attempt < pol.MaxRetries {
			a.faultStats.Retries++
			a.cfg.Trace.Event(a.engine.Now(), obs.KindRetry,
				g.id, g.disks[disk].ID(), attempt, attempt+1, "transient error")
			// The op stays owned by the pending retry.
			a.engine.Schedule(pol.delay(attempt), p.retryFn)
			return
		}
		a.faultStats.Fallbacks++
		a.cfg.Trace.Event(a.engine.Now(), obs.KindFallback,
			g.id, g.disks[disk].ID(), attempt, -1, "retries exhausted")
		p.release()
		a.redirect(g, disk, io, background, onDone)
		return
	}
	p.release()
	onDone()
}

// expire fires at the op deadline.
func (p *physOp) expire() {
	a := p.a
	g, disk := p.g, p.disk
	// A timeout only helps when the redundancy it falls back on is
	// actually better off than the disk the op is stuck on; otherwise let
	// the op run to completion.
	if !a.redirectHelps(g, disk) {
		return
	}
	if !p.settle() {
		return
	}
	// The attempt is abandoned: whatever the disk eventually does with it
	// is ignored (the disk time is still spent — that is the cost of a
	// fail-slow drive), and the op stays owned until it does. Serve
	// through redundancy. Deliberately NOT fed to the error tracker: a
	// blown deadline measures queue congestion — a commanded speed shift,
	// a post-shift drain, a rebuild hammering the survivors — not disk
	// health, and charging it would evict healthy drives for the policy's
	// own stalls. Only transient errors count.
	a.faultStats.Timeouts++
	a.faultStats.Fallbacks++
	a.cfg.Trace.Event(a.engine.Now(), obs.KindTimeout,
		g.id, g.disks[disk].ID(), p.attempt, -1, "op deadline; served via redundancy")
	a.redirect(g, disk, p.io, p.background, p.onDone)
}

// redirectHelps decides whether abandoning a stuck attempt in favor of
// the group's redundancy is likely to finish sooner. It keeps the op
// deadline honest — three regimes say no:
//
//   - the group is degraded or rebuilding: redundancy is already spent
//     (or busy being restored) and abandoning the attempt could only
//     lose data. Slow beats gone.
//   - a survivor is mid-transition (spin-up, speed shift) or off: the
//     fallback ops would stall behind the same commanded transition that
//     is stalling this one.
//   - the survivors' queues are comparably backed up: the wait is
//     congestion (e.g. the drain after a speed shift), not a slow disk,
//     and fanning the op out to equally loaded survivors only adds work.
//
// Under a genuine fail-slow member the survivors are live with short
// queues, and the timeout fires as intended.
func (a *Array) redirectHelps(g *Group, stuck int) bool {
	if g.Degraded() || g.rebuilding {
		return false
	}
	var survivors []int
	switch g.geo.Level {
	case raid.RAID1:
		survivors = []int{stuck ^ 1}
	case raid.RAID5:
		for i := range g.disks {
			if i != stuck {
				survivors = append(survivors, i)
			}
		}
	default:
		// RAID-0 has no redundancy: a timeout could only trade latency
		// for data loss.
		return false
	}
	worst := 0
	for _, s := range survivors {
		d := g.disks[s]
		switch d.State() {
		case diskmodel.SpinningUp, diskmodel.ShiftingSpeed, diskmodel.Standby, diskmodel.Failed:
			return false
		}
		if q := d.QueueLen(); q > worst {
			worst = q
		}
	}
	return 2*worst <= g.disks[stuck].QueueLen()
}

// noteError feeds the per-disk error tracker and trips the suspect and
// evicted states. Disabled (both thresholds zero) it does nothing.
func (a *Array) noteError(g *Group, disk int) {
	pol := &a.cfg.Retry
	if pol.SuspectAfter <= 0 && pol.EvictAfter <= 0 {
		return
	}
	if g.failed[disk] {
		return
	}
	if g.errCount == nil {
		g.errCount = map[int]int{}
	}
	g.errCount[disk]++
	n := g.errCount[disk]
	if pol.EvictAfter > 0 && n >= pol.EvictAfter {
		a.evict(g, disk)
		return
	}
	if pol.SuspectAfter > 0 && n >= pol.SuspectAfter {
		if !g.suspect[disk] {
			a.cfg.Trace.Event(a.engine.Now(), obs.KindSuspect,
				g.id, g.disks[disk].ID(), n, -1, "error threshold")
		}
		g.markSuspect(disk)
	}
}

// evict pushes a disk out of service through the regular failure path
// (degraded mode, rebuild). When redundancy cannot absorb the eviction
// (second failure in a protection domain) the disk stays suspect instead:
// limping along with retries beats certain data loss.
func (a *Array) evict(g *Group, disk int) {
	id := g.disks[disk].ID()
	if err := a.FailDisk(g.id, disk); err != nil {
		if !g.suspect[disk] {
			a.cfg.Trace.Event(a.engine.Now(), obs.KindSuspect,
				g.id, id, g.errCount[disk], -1, "evict refused; kept suspect")
		}
		g.markSuspect(disk)
		return
	}
	a.faultStats.Evictions++
	a.cfg.Trace.Event(a.engine.Now(), obs.KindEvict,
		g.id, id, g.errCount[disk], -1, "error threshold")
	delete(g.suspect, disk)
}

// maybeAutoRebuild starts a background rebuild of a failed member onto
// the first live spare, if the policy asks for it and none is running.
func (a *Array) maybeAutoRebuild(g *Group, disk int) {
	if !a.cfg.Retry.AutoRebuild || g.rebuilding {
		return
	}
	for si, sp := range a.spares {
		if sp.State() != diskmodel.Failed {
			// Ignore the error: a concurrent rebuild or a racing failure
			// just means this attempt stands down.
			_ = a.Rebuild(g.id, disk, si, true, nil)
			return
		}
	}
}
