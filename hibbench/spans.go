package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// spanRec is one timed call. Parent 0 means a root span; spans of one job
// share the root's ID as their Job.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Summed int64  `json:"summed_ns,omitempty"`
}

// tracer keeps spans in memory; write renders them at exit. Calls made
// hundreds of thousands of times per run (Source.Next, controller
// observer callbacks) are recorded as one aggregate span per parent:
// Count calls whose durations add up to Summed, placed inside the
// parent's interval.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []spanRec
	nextID int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	job := t.nextID
	if parent != 0 {
		job = t.spans[parent-1].Job
	}
	t.spans = append(t.spans, spanRec{ID: t.nextID, Parent: parent, Job: job, Name: name, Start: start})
	return t.nextID
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// aggregate records count calls totalling summed under parent.
func (t *tracer) aggregate(name string, parent int, count int64, summed time.Duration) {
	if t == nil || count == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.nextID++
	t.spans = append(t.spans, spanRec{ID: t.nextID, Parent: parent, Job: p.Job, Name: name,
		Start: p.Start, End: p.End, Count: count, Summed: int64(summed)})
}

// dur is a span's time: its own interval, or the summed time of the
// calls an aggregate stands for.
func (s spanRec) dur() int64 {
	if s.Count > 0 {
		return s.Summed
	}
	return s.End - s.Start
}

// childSums returns, per span ID, the summed duration of its direct
// children. The caller holds t.mu.
func (t *tracer) childSums() map[int]int64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	return child
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus what its direct children cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := t.childSums()
	out := make(map[string][2]time.Duration)
	for _, s := range t.spans {
		v := out[s.Name]
		v[0] += time.Duration(s.dur())
		v[1] += time.Duration(s.dur() - child[s.ID])
		out[s.Name] = v
	}
	return out
}

// overfull returns the names of spans whose direct children add up to
// more than the span's own duration: a negative self time.
func (t *tracer) overfull() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := t.childSums()
	var bad []string
	for _, s := range t.spans {
		if child[s.ID] > s.dur() {
			bad = append(bad, s.Name)
		}
	}
	return bad
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelf prints the total and self time of every span name.
func (t *tracer) printSelf(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %14s %14s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.3f %14.3f\n", n, ms(st[n][0]), ms(st[n][1]))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedSource wraps the workload generator, timing each Next and
// counting the requests sim.Run admits (arrivals at or before the end of
// simulated time).
type timedSource struct {
	src      trace.Source
	limit    float64
	timed    bool
	calls    int64
	admitted uint64
	spent    time.Duration
}

func (s *timedSource) Next() (trace.Request, bool) {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	r, ok := s.src.Next()
	if s.timed {
		s.spent += time.Since(t0)
		s.calls++
	}
	if ok && r.Time <= s.limit {
		s.admitted++
	}
	return r, ok
}

// ctrlSpans wraps a controller, timing Init and every observer callback
// and keeping the Env so the disks can be read after the run.
type ctrlSpans struct {
	inner sim.Controller
	env   *sim.Env
	calls map[string]int64
	spent map[string]time.Duration
}

func (c *ctrlSpans) Name() string { return c.inner.Name() }

func (c *ctrlSpans) Init(env *sim.Env) {
	c.env = env
	t0 := time.Now()
	c.inner.Init(env)
	c.note("ctrl.Init", t0)
}

func (c *ctrlSpans) note(name string, t0 time.Time) {
	c.spent[name] += time.Since(t0)
	c.calls[name]++
}

type arrivalSpans struct {
	c *ctrlSpans
	o sim.ArrivalObserver
}

func (h arrivalSpans) OnArrival(r trace.Request) {
	t0 := time.Now()
	h.o.OnArrival(r)
	h.c.note("ctrl.OnArrival", t0)
}

type completionSpans struct {
	c *ctrlSpans
	o sim.CompletionObserver
}

func (h completionSpans) OnComplete(latency float64, write bool) {
	t0 := time.Now()
	h.o.OnComplete(latency, write)
	h.c.note("ctrl.OnComplete", t0)
}

type routeSpans struct {
	c *ctrlSpans
	o sim.Router
}

func (h routeSpans) Route(r trace.Request, finish func()) bool {
	t0 := time.Now()
	took := h.o.Route(r, finish)
	h.c.note("ctrl.Route", t0)
	return took
}

// wrapController returns a controller that times inner and implements
// exactly the optional interfaces inner implements, so sim.Run takes the
// same paths with and without the wrapper.
func wrapController(inner sim.Controller) (sim.Controller, *ctrlSpans) {
	c := &ctrlSpans{inner: inner, calls: map[string]int64{}, spent: map[string]time.Duration{}}
	a, isA := inner.(sim.ArrivalObserver)
	o, isO := inner.(sim.CompletionObserver)
	r, isR := inner.(sim.Router)
	ah, oh, rh := arrivalSpans{c, a}, completionSpans{c, o}, routeSpans{c, r}
	switch {
	case isA && isO && isR:
		return struct {
			*ctrlSpans
			arrivalSpans
			completionSpans
			routeSpans
		}{c, ah, oh, rh}, c
	case isA && isO:
		return struct {
			*ctrlSpans
			arrivalSpans
			completionSpans
		}{c, ah, oh}, c
	case isA && isR:
		return struct {
			*ctrlSpans
			arrivalSpans
			routeSpans
		}{c, ah, rh}, c
	case isO && isR:
		return struct {
			*ctrlSpans
			completionSpans
			routeSpans
		}{c, oh, rh}, c
	case isA:
		return struct {
			*ctrlSpans
			arrivalSpans
		}{c, ah}, c
	case isO:
		return struct {
			*ctrlSpans
			completionSpans
		}{c, oh}, c
	case isR:
		return struct {
			*ctrlSpans
			routeSpans
		}{c, rh}, c
	}
	return c, c
}
