package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark host is a shared virtual machine whose speed changes by
// a quarter or more from one minute to the next, in CPU time as much as
// in wall time: other tenants share its caches and memory bandwidth. A
// fixed reference kernel, run after every timed simulation, measures the
// host's speed over the same minute, and the simulator workloads report
// host time in reference seconds: measured time scaled by refNominal over
// the kernel's median time in the run. The job service has a yardstick of
// its own built on the kernel (refservice.go). The kernel is part of the
// benchmark, not of the program, so a change to the program moves the
// scaled time exactly as it moves the raw one, while a slow minute on the
// host slows the program and the kernel alike.
//
// The kernel does the kind of work the simulator does: a discrete-event
// loop over a binary heap that allocates small objects and keeps a map
// of outstanding work, then map inserts of fresh byte slices and a sort.

// refNominal is the kernel's thread CPU time on the reference host (a
// 2-vCPU x86-64 VM, Go 1.24) in a typical minute. It only sets the scale
// of reference seconds, so that they read close to host seconds there.
const refNominal = 0.30

type refEvent struct {
	t    float64
	kind int
	id   int
	data []int
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refScale converts a run's host seconds into reference seconds: the
// kernel's nominal time over its median time in the run.
func refScale(nominal float64, kernel []float64) float64 { return nominal / median(kernel) }

// refSink keeps the compiler from discarding the kernel's work.
var refSink int

// refKernel does a fixed amount of work, f times the full kernel's; every
// call with the same f does the same.
func refKernel(f float64) {
	r := rand.New(rand.NewSource(3))
	q := &refQueue{}
	pending := map[int]*refEvent{}
	id := 0
	for ; id < 64; id++ {
		heap.Push(q, &refEvent{t: r.ExpFloat64(), id: id})
	}
	for n := 0; n < int(400_000*f); n++ {
		e := heap.Pop(q).(*refEvent)
		if e.kind == 0 {
			d := &refEvent{t: e.t + r.ExpFloat64()/2, kind: 1, id: e.id, data: make([]int, 1+e.id%5)}
			pending[e.id] = d
			heap.Push(q, d)
			heap.Push(q, &refEvent{t: e.t + r.ExpFloat64(), id: id})
			id++
		} else {
			delete(pending, e.id)
			refSink += len(e.data)
		}
	}
	blobs := make(map[int][]byte, 1024)
	for i := 0; i < int(200_000*f); i++ {
		k := r.Intn(70_000)
		blobs[k] = make([]byte, 32+k%64)
	}
	keys := make([]int, int(300_000*f))
	for i := range keys {
		keys[i] = r.Int()
	}
	sort.Ints(keys)
	refSink += len(pending) + len(blobs) + keys[0]&1
}

// refSeconds runs the kernel once after a GC and returns the CPU time
// its thread spent in it, which leaves out the GC's background workers.
func refSeconds() float64 {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	refKernel(1)
	return (threadCPU() - t0).Seconds()
}

// threadCPU returns the CPU time the calling OS thread has used, from
// CLOCK_THREAD_CPUTIME_ID, which counts to the nanosecond; getrusage's
// per-thread figure moves in scheduler ticks.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
