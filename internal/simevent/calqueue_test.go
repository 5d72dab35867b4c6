package simevent

import (
	"math/rand"
	"testing"
)

// refHeap is the pre-calendar-queue binary heap, kept as a test oracle:
// the calendar queue must fire the exact (time, sequence) order the heap
// did, under any interleaving of schedules and cancels.
type refHeap struct {
	seq   uint64
	queue []*refNode
}

type refNode struct {
	at    float64
	seq   uint64
	id    int
	index int
}

func (h *refHeap) push(at float64, id int) *refNode {
	n := &refNode{at: at, seq: h.seq, id: id, index: len(h.queue)}
	h.seq++
	h.queue = append(h.queue, n)
	h.siftUp(n.index)
	return n
}

func (h *refHeap) pop() *refNode {
	if len(h.queue) == 0 {
		return nil
	}
	n := h.queue[0]
	h.removeAt(0)
	return n
}

func (h *refHeap) remove(n *refNode) {
	if n.index >= 0 {
		h.removeAt(n.index)
	}
}

func refLess(a, b *refNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *refHeap) siftUp(i int) {
	q := h.queue
	n := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !refLess(n, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = n
	n.index = i
}

func (h *refHeap) siftDown(i int) bool {
	q := h.queue
	n := q[i]
	start := i
	half := len(q) / 2
	for i < half {
		c := 2*i + 1
		if r := c + 1; r < len(q) && refLess(q[r], q[c]) {
			c = r
		}
		if !refLess(q[c], n) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = n
	n.index = i
	return i != start
}

func (h *refHeap) removeAt(i int) {
	last := len(h.queue) - 1
	h.queue[i].index = -1
	if i != last {
		h.queue[i] = h.queue[last]
		h.queue[i].index = i
	}
	h.queue[last] = nil
	h.queue = h.queue[:last]
	if i < last {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
}

// TestCalendarMatchesHeapOrder drives the calendar queue and the reference
// heap through identical random schedule/cancel interleavings (including
// bursts of identical timestamps, which exercise the same-instant
// tie-break) and demands the exact same fire order.
func TestCalendarMatchesHeapOrder(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		e := New()
		ref := &refHeap{}
		var got []int
		type pending struct {
			ev Event
			rn *refNode
		}
		live := map[int]pending{}
		nextID := 0
		horizon := 0.0

		ops := 400 + rng.Intn(600)
		for op := 0; op < ops; op++ {
			switch r := rng.Float64(); {
			case r < 0.55 || len(live) == 0:
				// Schedule. A quarter of events reuse an existing
				// timestamp exactly to stress tie-break stability, and a
				// few land in the far future to force year wraps.
				at := horizon + rng.Float64()*10
				if rng.Float64() < 0.25 && len(ref.queue) > 0 {
					at = ref.queue[rng.Intn(len(ref.queue))].at
				}
				if rng.Float64() < 0.02 {
					at = horizon + 1e6 + rng.Float64()*1e6
				}
				if at < e.Now() {
					at = e.Now()
				}
				id := nextID
				nextID++
				ev := e.At(at, func() { got = append(got, id) })
				live[id] = pending{ev: ev, rn: ref.push(at, id)}
			case r < 0.8:
				// Cancel a random live event in both structures.
				for id, p := range live {
					if !e.Cancel(p.ev) {
						t.Fatalf("trial %d: cancel of live event %d failed", trial, id)
					}
					ref.remove(p.rn)
					delete(live, id)
					break
				}
			default:
				// Fire a burst.
				burst := 1 + rng.Intn(8)
				for i := 0; i < burst && len(ref.queue) > 0; i++ {
					want := ref.pop()
					before := len(got)
					if !e.Step() {
						t.Fatalf("trial %d: calendar empty, heap had %d", trial, len(ref.queue)+1)
					}
					if len(got) != before+1 || got[len(got)-1] != want.id {
						t.Fatalf("trial %d: fired %v, heap expected id %d at t=%v",
							trial, got[len(got)-1:], want.id, want.at)
					}
					delete(live, want.id)
					horizon = want.at
				}
			}
		}
		// Drain: remaining order must match exactly.
		for want := ref.pop(); want != nil; want = ref.pop() {
			if !e.Step() {
				t.Fatalf("trial %d: drain: calendar empty early", trial)
			}
			if got[len(got)-1] != want.id {
				t.Fatalf("trial %d: drain fired %d, want %d", trial, got[len(got)-1], want.id)
			}
		}
		if e.Step() {
			t.Fatalf("trial %d: calendar fired after heap drained", trial)
		}
	}
}

// TestCalendarTieBreakStability schedules many events at one instant
// interleaved with cancels and checks creation-order firing — the
// determinism contract same-time events rely on.
func TestCalendarTieBreakStability(t *testing.T) {
	e := New()
	var got []int
	var evs []Event
	for i := 0; i < 200; i++ {
		i := i
		evs = append(evs, e.At(5, func() { got = append(got, i) }))
	}
	// Cancel every third, then add a second wave at the same instant.
	want := []int{}
	for i := range evs {
		if i%3 == 0 {
			e.Cancel(evs[i])
		} else {
			want = append(want, i)
		}
	}
	for i := 200; i < 220; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
		want = append(want, i)
	}
	e.RunAll()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: fired %d, want %d", i, got[i], want[i])
		}
	}
}

// TestNextAt covers peeking the next event time without firing it, the
// entry point the run loop uses to place snapshot boundaries between
// events.
func TestNextAt(t *testing.T) {
	e := New()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty calendar reported an event")
	}
	var got []float64
	for _, at := range []float64{3, 1, 2, 2.5, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	if at, ok := e.NextAt(); !ok || at != 1 {
		t.Fatalf("NextAt = %v,%v, want 1,true", at, ok)
	}
	if len(got) != 0 || e.Now() != 0 {
		t.Fatalf("NextAt fired %v and moved the clock to %v", got, e.Now())
	}
	e.Step()
	e.Step()
	if at, ok := e.NextAt(); !ok || at != 2.5 {
		t.Fatalf("NextAt after two steps = %v,%v, want 2.5,true", at, ok)
	}
	e.RunAll()
	if _, ok := e.NextAt(); ok || len(got) != 5 {
		t.Fatalf("drained calendar: fired %d events, NextAt ok=%v", len(got), ok)
	}
}

// TestCalendarResizeChurn grows the calendar through several doublings,
// shrinks it back down, and verifies ordering and counts survive the
// redistributions.
func TestCalendarResizeChurn(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(7))
	fired := 0
	var evs []Event
	for i := 0; i < 5000; i++ {
		evs = append(evs, e.Schedule(rng.Float64()*100, func() { fired++ }))
	}
	for i := 0; i < len(evs); i += 2 {
		e.Cancel(evs[i])
	}
	if e.Pending() != 2500 {
		t.Fatalf("pending %d after cancels, want 2500", e.Pending())
	}
	last := -1.0
	for e.Pending() > 0 {
		at, _ := e.NextAt()
		if at < last {
			t.Fatalf("order violation: %v after %v", at, last)
		}
		last = at
		e.Step()
	}
	if fired != 2500 {
		t.Fatalf("fired %d, want 2500", fired)
	}
}
