package main

import (
	"fmt"
	"strings"

	"hibernator/internal/chaos"
)

// workload is one named input set. Each is a repro-format scenario (the
// text `hibsim -repro` and `hibserved` accept) without its seed line; the
// benchmark derives `variants` seeds from --seed and runs the scenario
// once per derived seed, so the simulated metrics average over several
// seeds instead of resting on one draw of a bursty trace.
type workload struct {
	name     string
	scenario string
	variants int
	served   bool // driven through the job service over loopback HTTP
}

var workloads = []workload{
	// The paper's headline case. Every simulator layer runs: the cache
	// absorbs ~44% of requests, CR re-plans 8 times with migration I/O,
	// and the array/raid/diskmodel allocation hot spots dominate.
	{
		name: "oltp-hib",
		scenario: `# hibchaos repro v1
duration 1800
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
`,
		variants: 4,
	},
	// The same array used differently: no cache, so every write is a
	// foreground RAID-5 read-modify-write, and TPM spin-down timers fire
	// on idle gaps. The cache and hibernator layers are bypassed, so a
	// change to them must not move this workload.
	{
		name: "cello-tpm",
		scenario: `# hibchaos repro v1
duration 3600
scheme tpm
family enterprise
levels 1
groups 4
group-disks 4
raid raid5
cache-mb 0
workload cello
rate 60
`,
		variants: 12,
	},
	// The job service with a state directory: for a short job the
	// service, WAL fsyncs, artifact store, snapshots and per-job run
	// construction dominate.
	{
		name: "served-durable",
		scenario: `# hibchaos repro v1
duration 30
scheme hibernator
family enterprise
levels 5
groups 1
group-disks 4
raid raid5
cache-mb 64
goal-ms 20
workload oltp
rate 20
`,
		variants: 16,
		served:   true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// variantSeed is the scenario seed of variant k under benchmark seed s.
// Variants of different benchmark seeds never share a scenario seed.
func (w workload) variantSeed(s int64, k int) int64 { return s*int64(w.variants) + int64(k) }

// repro renders variant k's scenario text: the workload's scenario with
// its seed substituted.
func (w workload) repro(s int64, k int) string {
	head, rest, _ := strings.Cut(w.scenario, "\n")
	return fmt.Sprintf("%s\nseed %d\n%s", head, w.variantSeed(s, k), rest)
}

// parse parses variant k's scenario the way hibsim -repro and hibserved
// do.
func (w workload) parse(s int64, k int) (*chaos.Scenario, error) {
	sc, err := chaos.ParseRepro(strings.NewReader(w.repro(s, k)))
	if err != nil {
		return nil, fmt.Errorf("%s variant %d: %w", w.name, k, err)
	}
	return sc, nil
}
