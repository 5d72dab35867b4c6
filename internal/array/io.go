package array

import (
	"fmt"

	"hibernator/internal/raid"
)

// groupPhys is one physical operation of a logical op, tagged with the
// group whose member it targets.
type groupPhys struct {
	group *Group
	io    raid.PhysIO
}

// logicalOp is the fan-out/fan-in state of one logical request: one per
// Submit, SubmitBackground or migration groupIO. It holds the pre-read and
// write phase lists, the count of physical ops still outstanding in the
// current phase, and the caller's callback. Ops are owned by their Array
// and recycled through its free list (see DESIGN.md, "Op free lists"):
// an op is taken at submission and released once its last physical op
// completes, just before the caller's callback runs.
type logicalOp struct {
	a      *Array
	reads  []groupPhys
	writes []groupPhys
	// phase is how many of the two phase lists have been dispatched;
	// remaining counts that phase's physical ops still in flight.
	phase     int
	remaining int

	background bool
	// foreground ops come from Submit: their completion feeds the
	// response-time statistics and the in-flight count.
	foreground bool
	// fanout ops count their physical ops in FanoutIOs (all but
	// migration traffic).
	fanout bool
	write  bool
	start  float64
	done   func(latency float64) // Submit's callback
	cb     func()                // SubmitBackground's and groupIO's callback

	// stepFn is step bound once: every physical op of this logical op
	// reports its completion through it.
	stepFn func()
	next   *logicalOp
}

// newLogical takes a logical op from the free list, or allocates one when
// the list is empty (the free list only grows to the peak concurrency).
func (a *Array) newLogical() *logicalOp {
	op := a.freeLogical
	if op == nil {
		op = &logicalOp{a: a}
		op.stepFn = op.step
		return op
	}
	a.freeLogical = op.next
	op.next = nil
	return op
}

// release clears the op's per-request state and returns it to the free
// list, keeping its phase buffers' capacity.
func (op *logicalOp) release() {
	a := op.a
	*op = logicalOp{a: a, reads: op.reads[:0], writes: op.writes[:0], stepFn: op.stepFn, next: a.freeLogical}
	a.freeLogical = op
}

// Submit issues a logical volume request. done receives the response time
// (completion minus submission) once every underlying physical operation
// has finished, including RAID-5 parity maintenance.
func (a *Array) Submit(off, size int64, write bool, done func(latency float64)) {
	if off < 0 || size <= 0 || off+size > a.LogicalBytes() {
		panic(fmt.Sprintf("array: request [%d,+%d) outside logical volume %d", off, size, a.LogicalBytes()))
	}
	start := a.engine.Now()
	a.inFlight++
	if a.auditor != nil {
		a.auditor.LogicalSubmit(start, a.inFlight)
	}
	op := a.newLogical()
	op.foreground, op.write, op.start, op.done = true, write, start, done
	a.fanOut(op, off, size, write)
}

// SubmitBackground issues a logical request at background disk priority
// without touching the response-time statistics — cache destage and other
// housekeeping traffic.
func (a *Array) SubmitBackground(off, size int64, write bool, done func()) {
	if off < 0 || size <= 0 || off+size > a.LogicalBytes() {
		panic(fmt.Sprintf("array: background request [%d,+%d) outside logical volume", off, size))
	}
	op := a.newLogical()
	op.background, op.cb = true, done
	a.fanOut(op, off, size, write)
}

// fanOut splits a logical range into per-extent pieces, maps each through
// its group's RAID geometry, and drives op through the two-phase
// (pre-read, then write) protocol.
func (a *Array) fanOut(op *logicalOp, off, size int64, write bool) {
	op.fanout = true
	eb := a.cfg.ExtentBytes
	for size > 0 {
		e := off / eb
		within := off % eb
		n := eb - within
		if n > size {
			n = size
		}
		loc := a.extentMap[e]
		a.extentAccesses[e]++
		g := a.groups[loc.Group]
		op.addPhases(g, loc.Slot*eb+within, n, write)
		off += n
		size -= n
	}
	op.advance()
}

// groupIO performs one contiguous I/O in a group's logical space (used by
// migration), honoring RAID write phases, and calls cb when all physical
// operations complete.
func (a *Array) groupIO(g *Group, goff, size int64, write, background bool, cb func()) {
	op := a.newLogical()
	op.background, op.cb = background, cb
	op.addPhases(g, goff, size, write)
	op.advance()
}

// addPhases maps one access in g's logical space through the group's
// geometry and appends its pre-reads and writes to the op's phase lists.
func (op *logicalOp) addPhases(g *Group, goff, size int64, write bool) {
	a := op.a
	a.mapBuf = g.geo.AppendMap(a.mapBuf[:0], goff, size, write)
	r, w := raid.Phases(a.mapBuf)
	for _, io := range r {
		op.reads = append(op.reads, groupPhys{g, io})
	}
	for _, io := range w {
		op.writes = append(op.writes, groupPhys{g, io})
	}
}

// advance dispatches the next non-empty phase, or completes the op when
// both phases are done. A physical op never completes synchronously
// inside dispatch, so the whole phase is issued before any step runs.
func (op *logicalOp) advance() {
	for op.phase < 2 {
		ios := op.reads
		if op.phase == 1 {
			ios = op.writes
		}
		op.phase++
		if len(ios) == 0 {
			continue
		}
		op.remaining = len(ios)
		for _, gp := range ios {
			if op.fanout {
				op.a.fanoutIOs++
			}
			op.a.dispatch(gp.group, gp.io, op.background, op.stepFn)
		}
		return
	}
	op.finish()
}

// step records one physical op's completion and advances the op once the
// current phase has drained.
func (op *logicalOp) step() {
	op.remaining--
	if op.remaining == 0 {
		op.advance()
	}
}

// finish settles the logical request's accounting, releases the op and
// then runs the caller's callback, which may submit again.
func (op *logicalOp) finish() {
	a := op.a
	if !op.foreground {
		cb := op.cb
		op.release()
		if cb != nil {
			cb()
		}
		return
	}
	lat := a.engine.Now() - op.start
	write, done := op.write, op.done
	op.release()
	a.inFlight--
	a.completed++
	if a.auditor != nil {
		a.auditor.LogicalComplete(a.engine.Now(), a.inFlight)
	}
	a.resp.Add(lat)
	a.respPct.Add(lat)
	if a.onComplete != nil {
		a.onComplete(lat, write)
	}
	if done != nil {
		done(lat)
	}
}
