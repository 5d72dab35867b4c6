package chaos

import (
	"math/rand"

	"hibernator/internal/array"
	"hibernator/internal/fault"
)

// Generate samples the index-th scenario of a soak seeded with seed. The
// result is a pure function of (seed, index) — the soak's parallelism and
// the order jobs are drained in cannot change what gets generated — and
// always satisfies Validate.
//
// The ranges are chosen to stress the interesting machinery while keeping
// one scenario cheap enough for thousands-per-soak: short runs (1-10
// simulated minutes), small arrays (up to 4x5 plus spares), every scheme,
// both disk families and workloads, retry policies from fully disabled to
// aggressive, ambient error rates, and up to four scripted fault events.
func Generate(seed int64, index int) Scenario {
	rng := rand.New(rand.NewSource(mix(seed, int64(index))))
	s := Scenario{
		// A distinct simulation seed per scenario, decoupled from the
		// shape choices below so shrinking never re-rolls the workload.
		Seed: int64(rng.Uint64() >> 1),
	}

	s.Duration = float64(choice(rng, []int{60, 90, 120, 180, 240, 300, 450, 600}))
	s.Scheme = choiceS(rng, []string{"base", "tpm", "drpm", "pdc", "maid", "hibernator", "hibernator"})
	if rng.Intn(4) == 0 {
		s.Family = "sff"
	} else {
		s.Family = "enterprise"
	}
	s.Levels = 1 + rng.Intn(5)

	s.RAID = choiceS(rng, []string{"raid0", "raid1", "raid5", "raid5"})
	s.Groups = 1 + rng.Intn(4)
	switch s.RAID {
	case "raid0":
		s.GroupDisks = 1 + rng.Intn(4)
	case "raid1":
		s.GroupDisks = 2 * (1 + rng.Intn(2))
	case "raid5":
		s.GroupDisks = 3 + rng.Intn(3)
	}
	s.SpareDisks = rng.Intn(3)
	if s.Scheme == "maid" && s.SpareDisks == 0 {
		s.SpareDisks = 2
	}

	s.CacheMB = int64(choice(rng, []int{0, 16, 64, 256}))
	s.RespGoalMs = float64(choice(rng, []int{0, 0, 8, 15, 30}))
	s.EpochFrac = choiceF(rng, []float64{0, 0.125, 0.25, 0.5})

	if rng.Intn(4) == 0 {
		s.Workload = "cello"
		s.Rate = choiceF(rng, []float64{0.5, 1, 2})
	} else {
		s.Workload = "oltp"
		s.Rate = float64(5 + rng.Intn(56))
	}

	// Retry policy: one scenario in four runs with it fully disabled even
	// when faults are armed (the legacy fail-stop reaction is a behavior
	// the oracles must hold to the same standard).
	if rng.Intn(4) != 0 {
		s.Retry = array.RetryPolicy{
			MaxRetries:    rng.Intn(4),
			Backoff:       choiceF(rng, []float64{0.005, 0.01, 0.05}),
			BackoffFactor: choiceF(rng, []float64{1, 2, 4}),
			OpDeadline:    choiceF(rng, []float64{0, 0.1, 0.25, 1}),
			SuspectAfter:  choice(rng, []int{0, 5, 10}),
			EvictAfter:    choice(rng, []int{0, 50, 200}),
			AutoRebuild:   rng.Intn(2) == 0,
		}
	}

	// Ambient rates: most scenarios fault-free at the ambient level.
	if rng.Intn(3) == 0 {
		s.Rates.TransientProb = choiceF(rng, []float64{0.001, 0.005, 0.02, 0.05})
	}
	if rng.Intn(5) == 0 {
		s.Rates.SpinUpFailProb = choiceF(rng, []float64{0.001, 0.01})
		s.Rates.SpinUpRetries = 1 + rng.Intn(3)
	}

	// Scripted fault timeline: up to four events, biased toward the early
	// 80% of the run so their consequences (rebuilds, ramps) have time to
	// unfold under observation.
	for i, n := 0, rng.Intn(5); i < n; i++ {
		s.Events = append(s.Events, randomEvent(rng, &s))
	}

	// Discarded draw: it once sampled an engine width. Keeping it keeps
	// every later draw, and so every seed's scenario sequence, unchanged.
	_ = choice(rng, []int{1, 2, 4, 8})

	// Kill-and-restore: half the scenarios also capture a snapshot partway
	// through and prove a restored run finishes identically. The fraction
	// is deliberately high — the oracle crosses every subsystem's state
	// capture, so it is where snapshot bugs actually surface.
	if rng.Intn(2) == 0 {
		s.SnapshotT = snap(choiceF(rng, []float64{0.25, 0.5, 0.75}) * s.Duration)
	}
	return s
}

// randomEvent samples one scripted fault aimed at a valid disk.
func randomEvent(rng *rand.Rand, s *Scenario) fault.Event {
	ev := fault.Event{
		Time: snap(rng.Float64() * 0.8 * s.Duration),
		Disk: rng.Intn(s.TotalDisks()),
	}
	switch rng.Intn(5) {
	case 0:
		ev.Kind = fault.FailStop
	case 1:
		ev.Kind = fault.FailSlow
		ev.Factor = choiceF(rng, []float64{2, 5, 20})
		ev.Ramp = snap(rng.Float64() * 0.2 * s.Duration)
	case 2:
		ev.Kind = fault.TransientBurst
		ev.Prob = choiceF(rng, []float64{0.05, 0.2, 0.8})
		ev.Duration = snap(rng.Float64() * 0.3 * s.Duration)
	case 3:
		ev.Kind = fault.Latent
		// A latent range somewhere in the first half of the disk, up to
		// 64 MiB long (spanning many extents).
		lo := int64(rng.Intn(1 << 30))
		ev.Lo, ev.Hi = lo, lo+int64(1+rng.Intn(64<<20))
	case 4:
		ev.Kind = fault.SpinUpFail
		ev.Prob = choiceF(rng, []float64{0.1, 0.5, 0.9})
		ev.Retries = rng.Intn(3)
	}
	return ev
}

// snap quantizes a time to milliseconds so repro files stay short and
// exact through the float round-trip.
func snap(t float64) float64 { return float64(int64(t*1000)) / 1000 }

func choice(rng *rand.Rand, xs []int) int          { return xs[rng.Intn(len(xs))] }
func choiceF(rng *rand.Rand, xs []float64) float64 { return xs[rng.Intn(len(xs))] }
func choiceS(rng *rand.Rand, xs []string) string   { return xs[rng.Intn(len(xs))] }

// Mix derives a per-index RNG seed from a master seed (splitmix64 over
// the pair), so neighboring indices get uncorrelated streams. The
// generator seeds every scenario through it, and harnesses that need
// their own deterministic randomness (the server-kill chaos loop's kill
// points) derive theirs from the same function so a whole chaos run is
// a pure function of its seed.
func Mix(seed, index int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// mix is the internal alias Generate predates Mix by.
func mix(seed, index int64) int64 { return Mix(seed, index) }
