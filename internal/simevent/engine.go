// Package simevent provides the discrete-event simulation engine that
// underlies the disk-array simulator.
//
// Time is a float64 number of seconds since the start of the run. Events
// scheduled for the same instant fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every simulation
// deterministic for a fixed seed.
//
// The calendar is a time-bucketed calendar queue (Brown, CACM 1988):
// pending events hash into "days" of a fixed width, each bucket holding a
// short sorted intrusive list. Schedule, cancel and step are O(1)
// amortized — the structure resizes and retunes its day width as the
// population grows and shrinks — where the previous binary heap paid
// O(log n) sifts. The engine remains allocation-free on its steady-state
// hot path: calendar nodes are recycled through a free list when events
// fire or are cancelled. Event handles are small values carrying a
// generation stamp, so a handle to an event that already fired can never
// cancel an unrelated event that happens to reuse the same node.
package simevent

import (
	"fmt"
	"math"
)

// node is one calendar entry. Nodes are owned by the engine and recycled
// via a free list; user code only ever sees Event handles.
type node struct {
	at  float64
	seq uint64
	fn  func()
	gen uint64 // bumped every time the node leaves the calendar

	// Intrusive doubly-linked bucket chain, sorted by (at, seq).
	next, prev *node
	day        int64 // at quantized to day width (see Engine.day)
	bucket     int32 // owning bucket index; -1 while off the calendar
}

// Event is a handle to a scheduled callback. It is a small value (safe to
// copy) and can be cancelled until it fires. The zero Event is a valid
// "no event" handle: not pending, cancelling it is a no-op.
type Event struct {
	n   *node
	gen uint64
}

// At reports the simulated time the event is scheduled for, or NaN if the
// event already fired or was cancelled.
func (ev Event) At() float64 {
	if !ev.Pending() {
		return math.NaN()
	}
	return ev.n.at
}

// Pending reports whether the event is still scheduled. A handle whose
// event fired or was cancelled reports false even if the underlying node
// has been recycled for a newer event.
func (ev Event) Pending() bool { return ev.n != nil && ev.n.gen == ev.gen }

// Calendar tuning. minBuckets keeps tiny calendars on one cache line of
// heads; the queue doubles above two events per bucket and halves below
// one per two buckets, the classic occupancy band.
const (
	minBuckets = 16
	minWidth   = 1e-9
	// maxDay caps the quantized day so extreme times (including +Inf test
	// inputs) cannot overflow the int64 conversion; far-future events all
	// share the cap day and stay correctly ordered by their sorted chains.
	maxDay = int64(1) << 62
)

// Engine is a discrete-event scheduler. The zero value is not usable; call
// New.
type Engine struct {
	now     float64
	seq     uint64
	stopped bool
	// processed counts events that have fired, for instrumentation.
	processed uint64

	buckets []cell // chain head/tail pairs, len is a power of two
	mask    int64
	width   float64 // day width in simulated seconds
	count   int     // pending events
	curDay  int64   // cursor: no pending event has day < curDay
	free    []*node
	// spare is the previous bucket array, kept for the next resize: the
	// two arrays ping-pong so steady-state oscillation (grow, drain,
	// grow again) never allocates once the high-water mark is reached.
	spare []cell

	// lastAt/gapSum/gapN feed the width retune at resize time with the
	// observed mean inter-fire gap, the quantity the day width should track.
	lastAt float64
	gapSum float64
	gapN   uint64
}

// cell is one calendar bucket: a doubly-linked chain sorted by (at, seq).
// The tail pointer makes the dominant insert — at or past the chain's end,
// where monotonically increasing sequence numbers put same-instant bursts
// and far-frontier schedules — an O(1) append.
type cell struct {
	head, tail *node
}

// New returns an engine positioned at time zero with an empty calendar.
func New() *Engine {
	e := &Engine{width: 1}
	e.buckets = make([]cell, minBuckets)
	e.mask = minBuckets - 1
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return e.count }

// Reset returns the engine to time zero with an empty calendar, retaining
// the recycled node storage so a reused engine schedules without
// allocating. Handles from before the reset are invalidated.
func (e *Engine) Reset() {
	for i := range e.buckets {
		for n := e.buckets[i].head; n != nil; {
			next := n.next
			e.release(n)
			n = next
		}
		e.buckets[i] = cell{}
	}
	e.count = 0
	e.curDay = 0
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.stopped = false
	e.lastAt = 0
	e.gapSum = 0
	e.gapN = 0
}

// day quantizes an event time to the calendar's current day width.
func (e *Engine) day(t float64) int64 {
	d := t / e.width
	if d >= float64(maxDay) || math.IsInf(t, 1) {
		return maxDay
	}
	return int64(d)
}

// Schedule arranges for fn to run delay seconds from now. A negative delay
// panics: scheduling in the past is always a simulator bug.
func (e *Engine) Schedule(delay float64, fn func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("simevent: schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute simulated time t, which must not be
// in the past.
func (e *Engine) At(t float64, fn func()) Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("simevent: schedule at t=%v before now=%v", t, e.now))
	}
	if fn == nil {
		panic("simevent: nil event callback")
	}
	n := e.alloc()
	n.at = t
	n.fn = fn
	n.seq = e.seq
	e.seq++
	e.insert(n)
	if e.count > 2*len(e.buckets) {
		e.resize(2 * len(e.buckets))
	}
	return Event{n: n, gen: n.gen}
}

// insert links n into its bucket's sorted chain and maintains the cursor
// invariant (curDay never exceeds the day of any pending event).
func (e *Engine) insert(n *node) {
	n.day = e.day(n.at)
	b := int32(n.day & e.mask)
	n.bucket = b
	// Sorted insert by (at, seq), walking backward from the tail: a new
	// event carries the largest sequence number, so same-instant bursts
	// and frontier schedules append in O(1), and the walk only pays for
	// genuinely out-of-order inserts.
	c := &e.buckets[b]
	after := c.tail
	for after != nil && nodeLess(n, after) {
		after = after.prev
	}
	if after == nil {
		n.next = c.head
		n.prev = nil
		if c.head != nil {
			c.head.prev = n
		} else {
			c.tail = n
		}
		c.head = n
	} else {
		n.next = after.next
		n.prev = after
		if after.next != nil {
			after.next.prev = n
		} else {
			c.tail = n
		}
		after.next = n
	}
	e.count++
	if n.day < e.curDay {
		// The cursor skipped this day while it was empty; pull it back so
		// the scan revisits it.
		e.curDay = n.day
	}
}

// unlink removes n from its bucket chain.
func (e *Engine) unlink(n *node) {
	c := &e.buckets[n.bucket]
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.next, n.prev = nil, nil
	n.bucket = -1
	e.count--
}

// Cancel removes a pending event from the calendar. Cancelling an event
// that already fired (or was already cancelled) is a no-op and returns
// false.
func (e *Engine) Cancel(ev Event) bool {
	if !ev.Pending() {
		return false
	}
	e.unlink(ev.n)
	e.release(ev.n)
	if len(e.buckets) > minBuckets && e.count < len(e.buckets)/4 {
		e.resize(len(e.buckets) / 2)
	}
	return true
}

// peek returns the earliest pending node without removing it, advancing
// the day cursor past empty days as a side effect. It returns nil when the
// calendar is empty.
func (e *Engine) peek() *node {
	if e.count == 0 {
		return nil
	}
	nb := int64(len(e.buckets))
	for scanned := int64(0); scanned < nb; scanned++ {
		if h := e.buckets[e.curDay&e.mask].head; h != nil && h.day == e.curDay {
			return h
		}
		e.curDay++
	}
	// A whole year of empty days: jump straight to the global minimum.
	var best *node
	for i := range e.buckets {
		if h := e.buckets[i].head; h != nil && (best == nil || nodeLess(h, best)) {
			best = h
		}
	}
	e.curDay = best.day
	return best
}

// NextAt reports the time of the earliest pending event, if any.
func (e *Engine) NextAt() (float64, bool) {
	n := e.peek()
	if n == nil {
		return 0, false
	}
	return n.at, true
}

// Step fires the earliest pending event and advances the clock to it.
// It returns false when the calendar is empty.
func (e *Engine) Step() bool {
	n := e.peek()
	if n == nil {
		return false
	}
	e.unlink(n)
	e.now = n.at
	fn := n.fn
	e.release(n)
	e.processed++
	// Zero gaps count too: a workload of same-instant bursts separated by
	// long silences must tune for the mean including the zeros, or the
	// estimate balloons to the silence length and the bursts chain up.
	e.gapSum += n.at - e.lastAt
	e.gapN++
	e.lastAt = n.at
	if len(e.buckets) > minBuckets && e.count < len(e.buckets)/4 {
		e.resize(len(e.buckets) / 2)
	} else if e.gapN >= retuneWindow {
		// The population size can stay flat while the simulation's time
		// scale drifts (a run that starts dense and turns sparse, or the
		// reverse), so resizes alone cannot keep the day width honest.
		// Retune in place when the recent inter-fire gap disagrees with
		// the width by more than the hysteresis factor.
		// A zero estimate means the whole window was one same-instant
		// burst — no spacing information, so never shrink the width on it.
		if est := 3 * e.gapSum / float64(e.gapN); est > e.width*8 || (est > 0 && est < e.width/8) {
			e.resize(len(e.buckets)) // consumes and resets the gap stats
		} else {
			e.gapSum, e.gapN = 0, 0
		}
	}
	fn()
	return true
}

// retuneWindow is how many fires feed one width-drift check; the gap
// statistics reset afterwards so the estimate tracks the recent past.
const retuneWindow = 256

// Run fires events until the calendar is empty, the next event lies beyond
// `until`, or Stop is called. The clock is left at min(until, last event
// time); events scheduled exactly at `until` do fire.
func (e *Engine) Run(until float64) {
	e.stopped = false
	for !e.stopped {
		n := e.peek()
		if n == nil || n.at > until {
			break
		}
		e.Step()
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
}

// RunAll fires events until the calendar is empty or Stop is called.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped {
		if !e.Step() {
			break
		}
	}
}

// Stop makes the innermost Run/RunAll return after the current event
// completes. Pending events remain scheduled.
func (e *Engine) Stop() { e.stopped = true }

// resize rebuilds the bucket array at the new size and retunes the day
// width to track the observed mean inter-fire gap (falling back to the
// pending span when the engine has not fired enough to know it). All
// pending nodes are redistributed; handles stay valid because nodes never
// move in memory.
func (e *Engine) resize(buckets int) {
	width := e.width
	if g := 3 * e.gapSum / float64(e.gapN); e.gapN >= 8 && g > 0 {
		width = g
	} else if e.count > 1 {
		// Bulk-loaded before any fire: spread the pending span so the
		// population averages about one event per day.
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range e.buckets {
			for n := e.buckets[i].head; n != nil; n = n.next {
				if n.at < lo {
					lo = n.at
				}
				if n.at > hi && !math.IsInf(n.at, 1) {
					hi = n.at
				}
			}
		}
		if hi > lo {
			width = (hi - lo) / float64(e.count)
		}
	}
	if width < minWidth || math.IsNaN(width) || math.IsInf(width, 0) {
		width = minWidth
	}
	e.gapSum, e.gapN = 0, 0
	old := e.buckets
	if buckets < minBuckets {
		buckets = minBuckets
	}
	next := e.spare
	if cap(next) < buckets {
		next = make([]cell, buckets)
	}
	next = next[:buckets]
	for i := range next {
		next[i] = cell{}
	}
	e.spare = old[:cap(old)]
	e.buckets = next
	e.mask = int64(buckets) - 1
	e.width = width
	e.count = 0
	// Re-derive the cursor under the new width: start past everything and
	// let the reinserts pull it back to the earliest pending day.
	e.curDay = maxDay
	for i := range old {
		n := old[i].head
		for n != nil {
			nx := n.next
			n.next, n.prev = nil, nil
			e.insert(n)
			n = nx
		}
	}
	if e.count == 0 {
		e.curDay = e.day(e.now)
	}
}

// allocChunk is how many nodes a cold allocation carves at once; recycling
// makes fresh chunks rare after the calendar reaches its high-water mark.
const allocChunk = 64

func (e *Engine) alloc() *node {
	if len(e.free) == 0 {
		chunk := make([]node, allocChunk)
		for i := range chunk {
			chunk[i].bucket = -1
			e.free = append(e.free, &chunk[i])
		}
	}
	n := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	return n
}

// release invalidates every outstanding handle to n (by bumping its
// generation) and returns it to the free list.
func (e *Engine) release(n *node) {
	n.fn = nil
	n.next, n.prev = nil, nil
	n.bucket = -1
	n.gen++
	e.free = append(e.free, n)
}

func nodeLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
