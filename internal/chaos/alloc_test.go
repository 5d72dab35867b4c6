//go:build !race

// Allocation counts differ under the race detector, so this runs in
// non-race builds only.

package chaos

import (
	"runtime"
	"strings"
	"testing"

	"hibernator/internal/scenario"
	"hibernator/internal/sim"
)

// allocGateScenario is a short paper-headline run: OLTP against a 4x4
// RAID-5 array behind a 256 MiB write-back cache under Hibernator with a
// 20 ms goal, so every per-request layer (cache, raid, array, diskmodel)
// and the CR epochs with their migrations are exercised.
const allocGateScenario = `# hibchaos repro v1
seed 1
duration 600
scheme hibernator
family enterprise
levels 5
groups 4
group-disks 4
raid raid5
cache-mb 256
goal-ms 20
epoch-frac 0.125
workload oltp
rate 200
`

// maxAllocsPerRequest is the gate's ceiling, about twice the measured
// value (0.40 allocs per simulated request with go1.24 on linux/amd64).
// The per-I/O path allocates nothing in steady state; what remains is
// run construction, migration step closures and the free lists' growth
// to peak concurrency. Before the op free lists the same run allocated
// about 52 objects per request.
const maxAllocsPerRequest = 0.8

// TestAllocsPerSimulatedRequest gates the simulator's allocation cost
// per simulated request end to end, through sim.Run.
func TestAllocsPerSimulatedRequest(t *testing.T) {
	sc, err := scenario.ParseRepro(strings.NewReader(allocGateScenario))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sc.BuildRun()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sim.Run(r.Config, r.Source, r.Controller, r.Duration)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests simulated")
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(res.Requests)
	t.Logf("%d requests, %.3f allocs/request, %.1f B/request", res.Requests, per,
		float64(after.TotalAlloc-before.TotalAlloc)/float64(res.Requests))
	if per > maxAllocsPerRequest {
		t.Errorf("%.3f allocs per simulated request, ceiling %.2f", per, maxAllocsPerRequest)
	}
}
