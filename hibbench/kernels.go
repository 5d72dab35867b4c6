package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hibernator/internal/array"
	"hibernator/internal/cache"
	"hibernator/internal/chaos"
	"hibernator/internal/diskmodel"
	"hibernator/internal/hibernator"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
	"hibernator/internal/trace"
)

const (
	// kernelMaxReqs caps the replayed prefix of a workload's stream.
	kernelMaxReqs = 100_000
	// kernelMinTime is how long each kernel replays, in whole passes.
	kernelMinTime = 100 * time.Millisecond
	// referenceCacheBytes sizes the cache kernel for workloads that run
	// without a controller cache.
	referenceCacheBytes = 256 << 20
	defaultBlock        = 64 << 10
)

// kernelSink keeps the compiler from discarding a kernel's results.
var kernelSink int

// kernelCost is a layer's host cost per operation on the workload's own
// requests.
type kernelCost struct {
	ns, allocs float64
}

// timeKernel replays whole passes until kernelMinTime has been spent
// inside them. prepare builds a fresh layer instance outside the timed
// part and returns the pass, which reports how many operations it made.
func timeKernel(prepare func() func() int) kernelCost {
	var spent time.Duration
	var ops int
	var allocs uint64
	before, after := newMemSample(), newMemSample()
	for spent < kernelMinTime || ops == 0 {
		pass := prepare()
		runtime.GC()
		before.read()
		t0 := time.Now()
		n := pass()
		spent += time.Since(t0)
		after.read()
		ops += n
		allocs += after.allocs - before.allocs
		if n == 0 {
			break
		}
	}
	if ops == 0 {
		return kernelCost{}
	}
	return kernelCost{ns: float64(spent.Nanoseconds()) / float64(ops), allocs: float64(allocs) / float64(ops)}
}

// kernelResults are the per-op costs of each layer on one stream.
type kernelResults struct {
	cache, raid, array, disk, cr kernelCost
	physPerReq                   float64
}

// replayLayers regenerates the scenario's seeded request stream and
// replays it through each layer's public functions in isolation.
func replayLayers(sc *chaos.Scenario) (*kernelResults, error) {
	r, err := sc.BuildRun()
	if err != nil {
		return nil, err
	}
	var reqs []trace.Request
	for len(reqs) < kernelMaxReqs {
		q, ok := r.Source.Next()
		if !ok || q.Time > r.Duration {
			break
		}
		reqs = append(reqs, q)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("scenario emits no requests")
	}
	cfg := r.Config
	spec := cfg.Spec
	stripe := cfg.StripeUnit
	if stripe == 0 {
		stripe = defaultBlock
	}
	block := cfg.CacheBlock
	if block == 0 {
		block = defaultBlock
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = referenceCacheBytes
	}
	ext := cfg.ExtentBytes
	geo := raid.Geometry{Level: cfg.Level, Disks: cfg.GroupDisks, StripeUnit: stripe}
	out := &kernelResults{}

	out.cache = timeKernel(func() func() int {
		c := cache.New(cacheBytes, block)
		return func() int {
			for _, q := range reqs {
				if q.Write {
					c.Write(q.Off, q.Size)
				} else {
					c.Read(q.Off, q.Size)
				}
			}
			return len(reqs)
		}
	})

	// Offsets are taken within their extent: the group-local address
	// the array hands the RAID layer has the same strip alignment.
	var member0 []raid.PhysIO
	phys := 0
	for _, q := range reqs {
		ios := geo.Map(q.Off%ext, q.Size, q.Write)
		phys += len(ios)
		for _, io := range ios {
			if io.Disk == 0 {
				member0 = append(member0, io)
			}
		}
	}
	out.physPerReq = float64(phys) / float64(len(reqs))
	out.raid = timeKernel(func() func() int {
		return func() int {
			for _, q := range reqs {
				kernelSink += len(geo.Map(q.Off%ext, q.Size, q.Write))
			}
			return len(reqs)
		}
	})

	var arrErr error
	out.array = timeKernel(func() func() int {
		e := simevent.New()
		a, err := array.New(array.Config{
			Engine: e, Spec: &spec, Groups: cfg.Groups, GroupDisks: cfg.GroupDisks,
			Level: cfg.Level, StripeUnit: cfg.StripeUnit, ExtentBytes: cfg.ExtentBytes,
			Seed: cfg.Seed, InitialLevel: spec.FullLevel(), ExpectedRotLatency: cfg.ExpectedRotLatency,
		})
		if err != nil {
			arrErr = err
			return func() int { return 0 }
		}
		limit := a.LogicalBytes()
		return func() int {
			for _, q := range reqs {
				off, size := q.Off, q.Size
				if off+size > limit {
					size = limit - off
				}
				a.Submit(off, size, q.Write, nil)
				if a.InFlight() > 128 {
					e.RunAll()
				}
			}
			e.RunAll()
			return len(reqs)
		}
	})
	if arrErr != nil {
		return nil, arrErr
	}

	done := func(*diskmodel.Request, float64) {}
	out.disk = timeKernel(func() func() int {
		e := simevent.New()
		d := diskmodel.New(e, &spec, diskmodel.Config{
			Seed: cfg.Seed, InitialLevel: spec.FullLevel(), ExpectedRotLatency: cfg.ExpectedRotLatency,
		})
		return func() int {
			for _, io := range member0 {
				d.Submit(&diskmodel.Request{LBA: io.Offset, Size: io.Size, Write: io.Write, Done: done})
				if d.QueueLen() > 64 {
					e.RunAll()
				}
			}
			e.RunAll()
			return len(member0)
		}
	})

	in := crInput(sc, cfg.Groups, cfg.GroupDisks, ext, &spec, reqs, out.physPerReq)
	out.cr = timeKernel(func() func() int {
		return func() int {
			const solves = 50
			for i := 0; i < solves; i++ {
				hibernator.Solve(in)
			}
			return solves
		}
	})
	return out, nil
}

// crInput builds the epoch optimizer's input from the stream the way the
// controller sees it: extents sorted hot to cold and dealt to the groups
// in rank order, loads as accesses per second over the stream's span.
func crInput(sc *chaos.Scenario, groups, disks int, ext int64, spec *diskmodel.Spec, reqs []trace.Request, physPerReq float64) hibernator.CRInput {
	counts := map[int64]float64{}
	var bytes int64
	for _, q := range reqs {
		counts[q.Off/ext]++
		bytes += q.Size
	}
	hot := make([]float64, 0, len(counts))
	for _, c := range counts {
		hot = append(hot, c)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(hot)))
	span := reqs[len(reqs)-1].Time - reqs[0].Time
	if span <= 0 {
		span = 1
	}
	loads := make([]float64, groups)
	per := (len(hot) + groups - 1) / groups
	for i, c := range hot {
		loads[i/per] += c / span
	}
	current := make([]int, groups)
	for i := range current {
		current[i] = spec.FullLevel()
	}
	epoch := sc.EpochFrac
	if epoch == 0 {
		epoch = 0.25
	}
	return hibernator.CRInput{
		Spec:          spec,
		GroupLoads:    loads,
		DisksPerGroup: disks,
		CurrentLevels: current,
		PhysFactor:    physPerReq,
		AvgSize:       bytes / int64(len(reqs)),
		Goal:          sc.RespGoalMs / 1000,
		Epoch:         sc.Duration * epoch,
	}
}
