package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"hibernator/internal/array"
	"hibernator/internal/diskmodel"
	"hibernator/internal/fault"
	"hibernator/internal/scenario"
)

// secondsPerYear converts the fault-acceleration clock (Julian year).
const secondsPerYear = 365.25 * 86400

// ArraySpec is one array's place in the fleet: a scenario (disk family,
// shape, scheme, cache, goal, retry policy and, once sampled for the run
// horizon, its vintage faults) plus what only the fleet knows — the
// array's index, its deployment vintage and the admission plan's
// power-cap verdict. The scenario has no workload of its own: the
// router's tenants supply the request streams. Specs are a pure
// function of (fleet seed, index) via SampleArray, so growing a fleet
// from N to N+k arrays leaves arrays 0..N-1 bit-identical — the
// property the router's stability contract builds on.
type ArraySpec struct {
	Index int
	scenario.Scenario
	AgeYears float64 // deployment vintage, in years before the run

	// Capped is set by the admission plan: a capped array's spec is
	// truncated to the lowest RPM level for the whole run.
	Capped bool
}

// MemberDisks returns the data-holding drives (excluding spares).
func (a *ArraySpec) MemberDisks() int { return a.Groups * a.GroupDisks }

// Weight is the router's capacity weight (proportional tenant share).
func (a *ArraySpec) Weight() float64 { return float64(a.MemberDisks()) }

// String renders the spec's shape on one line (for reports).
func (a *ArraySpec) String() string {
	s := fmt.Sprintf("array %d: %s/%s levels=%d age=%.1fy %dx%d %s spares=%d cache=%dMB goal=%gms",
		a.Index, a.Scheme, a.Family, a.Levels, a.AgeYears,
		a.Groups, a.GroupDisks, a.RAID, a.SpareDisks, a.CacheMB, a.RespGoalMs)
	if a.Capped {
		s += " CAPPED"
	}
	return s
}

// SampleArray draws the index-th array of a fleet seeded with seed. The
// result is a pure function of (seed, index): fleet parallelism, tenant
// routing and fleet growth cannot change what an index samples to.
// Duration-dependent quantities (the fail-stop timeline) are sampled
// later, in sampleFaults, from the same per-array stream.
func SampleArray(seed int64, index int) ArraySpec {
	rng := rand.New(rand.NewSource(mix3(seed, int64(index), 0xA11A7)))
	a := ArraySpec{Index: index}
	// The per-array simulation seed is decoupled from the shape draws,
	// like the chaos generator's.
	a.Seed = int64(rng.Uint64() >> 1)
	if rng.Intn(4) == 0 {
		a.Family = "sff"
	} else {
		a.Family = "enterprise"
	}
	a.Levels = 2 + rng.Intn(4)
	a.AgeYears = choiceF(rng, []float64{0.5, 1, 1.5, 2, 3, 4, 5})
	a.Scheme = choiceS(rng, []string{"hibernator", "hibernator", "hibernator", "drpm", "tpm"})
	a.RAID = choiceS(rng, []string{"raid5", "raid5", "raid1"})
	a.Groups = 2 + rng.Intn(3)
	if a.RAID == "raid1" {
		a.GroupDisks = 2 * (1 + rng.Intn(2))
	} else {
		a.GroupDisks = 4 + rng.Intn(3)
	}
	a.SpareDisks = 1 + rng.Intn(2)
	a.CacheMB = int64(choice(rng, []int{16, 64, 256}))
	a.RespGoalMs = choiceF(rng, []float64{15, 30})
	// Every array reacts to faults the same way.
	a.Retry = array.RetryPolicy{
		MaxRetries:    2,
		Backoff:       0.01,
		BackoffFactor: 2,
		OpDeadline:    0.25,
		SuspectAfter:  8,
		EvictAfter:    100,
		AutoRebuild:   true,
	}
	return a
}

// sampleFaults sets the run horizon and derives the vintage fault
// pressure for it: the ambient transient rate scales with the family AFR
// at the array's age, and fail-stop deaths arrive Poisson with rate
// AFR × member disks × accelerated exposure, capped at the spare count
// so every death can rebuild. The draw is a pure function of
// (seed, index, duration, accel).
func (a *ArraySpec) sampleFaults(seed int64, duration, accel float64) {
	a.Duration = duration
	curve, ok := diskmodel.FamilyAFR(a.Family)
	if !ok {
		return
	}
	afr := curve.At(a.AgeYears)
	a.Rates.TransientProb = snap6(0.0002 * afr / 0.01)
	if a.Rates.TransientProb > 0.002 {
		a.Rates.TransientProb = 0.002
	}
	rng := rand.New(rand.NewSource(mix3(seed, int64(a.Index), 0xFA117)))
	exposureYears := duration * accel / secondsPerYear
	lambda := afr * float64(a.MemberDisks()) * exposureYears
	n := poisson(rng, lambda)
	if n > a.SpareDisks {
		n = a.SpareDisks
	}
	a.Events = a.Events[:0]
	for i := 0; i < n; i++ {
		a.Events = append(a.Events, fault.Event{
			Kind: fault.FailStop,
			Time: snap3(rng.Float64() * 0.8 * duration),
			Disk: rng.Intn(a.MemberDisks()),
		})
	}
}

// poisson draws from Poisson(lambda) by inversion; exact for the small
// rates the vintage model produces.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	u := rng.Float64()
	p := math.Exp(-lambda)
	cum := p
	k := 0
	for u > cum && k < 64 {
		k++
		p *= lambda / float64(k)
		cum += p
	}
	return k
}

// snap3 quantizes to milliseconds (stable through float formatting).
func snap3(t float64) float64 { return float64(int64(t*1000)) / 1000 }

// snap6 quantizes to 1e-6 (ambient probabilities).
func snap6(t float64) float64 { return float64(int64(t*1e6)) / 1e6 }

func choice(rng *rand.Rand, xs []int) int          { return xs[rng.Intn(len(xs))] }
func choiceF(rng *rand.Rand, xs []float64) float64 { return xs[rng.Intn(len(xs))] }
func choiceS(rng *rand.Rand, xs []string) string   { return xs[rng.Intn(len(xs))] }

// mix3 derives an RNG seed from (seed, a, b) with splitmix64 steps, so
// neighboring indices and distinct draw domains get uncorrelated streams.
func mix3(seed, a, b int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(a)*0xbf58476d1ce4e5b9 + uint64(b) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
