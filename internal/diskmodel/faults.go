package diskmodel

import (
	"fmt"
	"math/rand"
)

// This file holds the per-disk fault models: transient media errors,
// latent sector errors pinned to LBA ranges, fail-slow degradation, and
// spin-up failure with bounded retry. All randomness comes from a
// dedicated fault RNG (seeded from the disk's seed), so enabling a fault
// on one disk never perturbs the service-time draws of any disk, and a
// disk with no fault configured performs zero random draws — the fault
// machinery is a strict no-op until armed.

// LBARange is a half-open byte range [Lo, Hi) on one disk.
type LBARange struct {
	Lo, Hi int64
}

// faultState carries every armed fault model of one disk. It is nil until
// the first fault is configured.
type faultState struct {
	rng *rand.Rand

	// transientProb is the per-operation probability that the op consumes
	// its full service time and then fails with a retryable error.
	transientProb float64

	// latent holds unreadable LBA ranges. Reads intersecting one fail
	// deterministically; a write overlapping a range repairs it (sector
	// remap on write), clearing the range.
	latent []LBARange

	// Fail-slow: service times are multiplied by a factor that ramps
	// linearly from 1 at slowStart to slowMax at slowStart+slowRamp.
	slowStart float64
	slowRamp  float64
	slowMax   float64
	slowSet   bool

	// Spin-up failure: each spin-up attempt fails with spinFailProb; after
	// spinRetries failed retries (so spinRetries+1 attempts) the disk is
	// declared dead.
	spinFailProb float64
	spinRetries  int

	transientErrs uint64
	latentErrs    uint64
	spinFailures  uint64

	// draws counts consumptions of the fault RNG stream. Snapshots record
	// it as the stream position: because the stream is a pure function of
	// (seed, draws), equal draw counts at equal seeds mean the generators
	// will produce identical futures.
	draws uint64
}

// faults lazily allocates the fault state with its dedicated RNG.
func (d *Disk) faultState() *faultState {
	if d.faults == nil {
		// Decorrelate from the service-time RNG but stay seed-deterministic.
		d.faults = &faultState{rng: rand.New(rand.NewSource(d.cfg.Seed ^ 0x5deece66d))}
	}
	return d.faults
}

// SetTransientErrorProb arms (or, with p <= 0, disarms) transient media
// errors: each operation independently fails with probability p after
// consuming its full service time. Failed operations set Request.Errored;
// the upper layer decides whether to retry.
func (d *Disk) SetTransientErrorProb(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	if d.faults == nil && p == 0 {
		return
	}
	d.faultState().transientProb = p
}

// TransientErrorProb returns the armed per-op error probability.
func (d *Disk) TransientErrorProb() float64 {
	if d.faults == nil {
		return 0
	}
	return d.faults.transientProb
}

// AddLatentRange pins a latent sector error onto [lo, hi): reads touching
// it fail deterministically until a write overlaps the range, which
// repairs it (models sector reallocation on write).
func (d *Disk) AddLatentRange(lo, hi int64) {
	if lo < 0 || hi <= lo {
		panic(fmt.Sprintf("diskmodel: invalid latent range [%d,%d)", lo, hi))
	}
	fs := d.faultState()
	fs.latent = append(fs.latent, LBARange{Lo: lo, Hi: hi})
}

// LatentRanges returns the currently unreadable ranges.
func (d *Disk) LatentRanges() []LBARange {
	if d.faults == nil {
		return nil
	}
	return append([]LBARange(nil), d.faults.latent...)
}

// SetFailSlow arms fail-slow degradation: from `start` (absolute
// simulated time) the disk's positioning and transfer times are scaled by
// a factor ramping linearly from 1 to `max` over `ramp` seconds (ramp 0
// applies the full factor at start). max <= 1 disarms.
func (d *Disk) SetFailSlow(start, ramp, max float64) {
	if max <= 1 {
		if d.faults != nil {
			d.faults.slowSet = false
		}
		return
	}
	fs := d.faultState()
	fs.slowStart, fs.slowRamp, fs.slowMax = start, ramp, max
	fs.slowSet = true
}

// SlowFactor returns the fail-slow service-time multiplier in force at
// the current simulated time (1 when healthy).
func (d *Disk) SlowFactor() float64 {
	fs := d.faults
	if fs == nil || !fs.slowSet {
		return 1
	}
	now := d.engine.Now()
	if now < fs.slowStart {
		return 1
	}
	if fs.slowRamp <= 0 || now >= fs.slowStart+fs.slowRamp {
		return fs.slowMax
	}
	return 1 + (fs.slowMax-1)*(now-fs.slowStart)/fs.slowRamp
}

// SetSpinUpFailure arms spin-up failure: each spin-up attempt fails with
// probability p (still paying the full spin-up time and energy); after
// `retries` failed retries the disk gives up and transitions to Failed.
func (d *Disk) SetSpinUpFailure(p float64, retries int) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	if retries < 0 {
		retries = 0
	}
	if d.faults == nil && p == 0 {
		return
	}
	fs := d.faultState()
	fs.spinFailProb = p
	fs.spinRetries = retries
}

// TransientErrors counts operations failed by the transient model.
func (d *Disk) TransientErrors() uint64 {
	if d.faults == nil {
		return 0
	}
	return d.faults.transientErrs
}

// LatentErrors counts reads failed by latent sector ranges.
func (d *Disk) LatentErrors() uint64 {
	if d.faults == nil {
		return 0
	}
	return d.faults.latentErrs
}

// SpinUpFailures counts failed spin-up attempts.
func (d *Disk) SpinUpFailures() uint64 {
	if d.faults == nil {
		return 0
	}
	return d.faults.spinFailures
}

// faultOutcome decides, at completion time, whether the finished request
// failed. Write repairs of latent ranges happen here too. The no-fault
// path performs no draws.
func (d *Disk) faultOutcome(r *Request) bool {
	fs := d.faults
	if fs == nil {
		return false
	}
	errored := false
	if len(fs.latent) > 0 {
		if r.Write {
			// A write overlapping a latent range repairs it.
			kept := fs.latent[:0]
			for _, lr := range fs.latent {
				if r.LBA < lr.Hi && r.LBA+r.Size > lr.Lo {
					continue
				}
				kept = append(kept, lr)
			}
			fs.latent = kept
		} else {
			for _, lr := range fs.latent {
				if r.LBA < lr.Hi && r.LBA+r.Size > lr.Lo {
					fs.latentErrs++
					errored = true
					break
				}
			}
		}
	}
	if fs.transientProb > 0 {
		fs.draws++
		if fs.rng.Float64() < fs.transientProb {
			fs.transientErrs++
			errored = true
		}
	}
	return errored
}

// spinUpFails draws one spin-up attempt outcome (true = attempt failed).
func (d *Disk) spinUpFails() bool {
	fs := d.faults
	if fs == nil || fs.spinFailProb == 0 {
		return false
	}
	fs.draws++
	if fs.rng.Float64() < fs.spinFailProb {
		fs.spinFailures++
		return true
	}
	return false
}

// FaultRNGDraws reports the fault RNG's stream position: how many draws
// the disk's fault models have consumed (0 when no fault is armed).
func (d *Disk) FaultRNGDraws() uint64 {
	if d.faults == nil {
		return 0
	}
	return d.faults.draws
}
