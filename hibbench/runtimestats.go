package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuNow returns the CPU time the process has used so far, user plus
// system, over all its threads. The kernel does not charge a thread for
// time its virtual CPU was descheduled by the hypervisor (steal), which
// on a shared host is the largest source of wall-clock noise.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSample reads the process-wide runtime counters the benchmark turns
// into per-request and per-op costs.
type memSample struct {
	allocs, bytes   uint64  // heap objects and bytes allocated so far
	gcCycles        uint64  // completed GC cycles
	gcCPU, totalCPU float64 // estimated CPU seconds in the GC and in total
	liveHeap        uint64  // heap marked live by the last GC cycle
	cpu             time.Duration
	samples         []metrics.Sample
}

var memNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func newMemSample() *memSample {
	s := &memSample{samples: make([]metrics.Sample, len(memNames))}
	for i, n := range memNames {
		s.samples[i].Name = n
	}
	return s
}

func (s *memSample) read() *memSample {
	metrics.Read(s.samples)
	u := func(i int) uint64 {
		if s.samples[i].Value.Kind() == metrics.KindUint64 {
			return s.samples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s.samples[i].Value.Kind() == metrics.KindFloat64 {
			return s.samples[i].Value.Float64()
		}
		return 0
	}
	s.allocs, s.bytes, s.gcCycles = u(0), u(1), u(2)
	s.gcCPU, s.totalCPU = f(3), f(4)
	s.liveHeap = u(5)
	s.cpu = cpuNow()
	return s
}

// memDelta is the difference between two samples.
type memDelta struct {
	allocs, bytes, gcCycles uint64
	gcCPU, totalCPU         float64
	cpu                     time.Duration // process CPU time
}

// gcFrac is the GC's share of the process CPU time over the delta (0 when
// no GC cycle ended inside it: the runtime updates both at cycle ends).
func (d memDelta) gcFrac() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

func (d *memDelta) add(o memDelta) {
	d.allocs += o.allocs
	d.bytes += o.bytes
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	d.cpu += o.cpu
}

func since(before, after *memSample) memDelta {
	return memDelta{
		allocs:   after.allocs - before.allocs,
		bytes:    after.bytes - before.bytes,
		gcCycles: after.gcCycles - before.gcCycles,
		gcCPU:    after.gcCPU - before.gcCPU,
		totalCPU: after.totalCPU - before.totalCPU,
		cpu:      after.cpu - before.cpu,
	}
}

// heapWatch records the live heap every GC cycle marks while it is
// armed, with the number of cycles completed when it was read. A
// finalizer on a throwaway sentinel runs once per cycle and re-arms
// itself, so every cycle is seen without polling.
type heapWatch struct {
	mu      sync.Mutex
	stopped bool
	live    []float64
	cycles  []uint64
	sample  *memSample // owned by the finalizer goroutine
}

type gcSentinel struct {
	_ *int
	_ [16]byte
}

func watchHeap() *heapWatch {
	w := &heapWatch{sample: newMemSample()}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		s := w.sample.read()
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.stopped {
			return
		}
		w.live = append(w.live, float64(s.liveHeap))
		w.cycles = append(w.cycles, s.gcCycles)
		w.arm()
	})
}

// peakWindow is how many consecutive GC cycles a live heap must persist
// through to count toward the peak. A concurrent cycle also marks what is
// allocated while it runs, so a single cycle's live heap moves with
// scheduling; the smallest of 16 consecutive cycles is the heap the
// program really held across them.
const peakWindow = 16

// stop disarms the watch.
func (w *heapWatch) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
}

// peak returns the peak live heap in MiB over the cycles numbered in
// (from, to]: the largest live heap sustained across peakWindow
// consecutive cycles. It reports false when no cycle in the range was
// seen.
func (w *heapWatch) peak(from, to uint64) (float64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var live []float64
	for i, v := range w.live {
		if c := w.cycles[i]; c > from && c <= to {
			live = append(live, v)
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	return sustainedPeak(live, peakWindow) / (1 << 20), true
}

// sustainedPeak returns the largest value v such that some window of n
// consecutive samples are all at least v: the maximum over windows of
// each window's minimum. With fewer than n samples the window is all of
// them.
func sustainedPeak(samples []float64, n int) float64 {
	if n > len(samples) {
		n = len(samples)
	}
	peak := 0.0
	for i := 0; i+n <= len(samples); i++ {
		lo := samples[i]
		for _, v := range samples[i+1 : i+n] {
			if v < lo {
				lo = v
			}
		}
		if i == 0 || lo > peak {
			peak = lo
		}
	}
	return peak
}
