package array_test

import (
	"testing"

	"hibernator/internal/array"
	"hibernator/internal/diskmodel"
	"hibernator/internal/invariant"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
)

// ownershipRig drives an array with an armed invariant checker and counts
// every logical request's completions. The array recycles its op state
// through free lists, so a fault path that hands an op back too early, or
// twice, shows up here as a request completing zero or two times, a
// nonzero in-flight count, or a checker violation.
type ownershipRig struct {
	t     *testing.T
	e     *simevent.Engine
	a     *array.Array
	chk   *invariant.Checker
	count []int
}

func newOwnershipRig(t *testing.T, level raid.Level, disks int, pol array.RetryPolicy) *ownershipRig {
	t.Helper()
	e := simevent.New()
	spec := diskmodel.MultiSpeedUltrastar(1, 0)
	a, err := array.New(array.Config{
		Engine: e, Spec: &spec, Groups: 1, GroupDisks: disks, Level: level,
		ExtentBytes: 64 << 20, Seed: 9, ExpectedRotLatency: true, Retry: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.New()
	chk.Attach(e, a, nil, nil)
	return &ownershipRig{t: t, e: e, a: a, chk: chk}
}

// submit issues one tracked logical request.
func (r *ownershipRig) submit(off, size int64, write bool) {
	id := len(r.count)
	r.count = append(r.count, 0)
	r.a.Submit(off, size, write, func(float64) { r.count[id]++ })
}

// at runs fn at simulated time t.
func (r *ownershipRig) at(t float64, fn func()) { r.e.At(t, fn) }

// finish drains the calendar and checks the ownership contract.
func (r *ownershipRig) finish() {
	r.t.Helper()
	r.e.RunAll()
	for id, n := range r.count {
		if n != 1 {
			r.t.Errorf("request %d completed %d times, want exactly once", id, n)
		}
	}
	if n := r.a.InFlight(); n != 0 {
		r.t.Errorf("InFlight() = %d after drain, want 0", n)
	}
	r.chk.Finish(r.e.Now())
	for _, v := range r.chk.Violations() {
		r.t.Errorf("invariant: %v", v)
	}
}

const strip = 64 << 10

// TestOwnershipDeadlineBeforeDiskCompletes abandons attempts on a
// fail-slow mirror side at the op deadline, then keeps submitting while
// the slow disk still holds the abandoned requests. An op recycled when
// its deadline fired, rather than when the disk returned it, would be
// handed to one of the later requests while the slow disk still queues
// its embedded request — and the slow disk's late completion would then
// settle the wrong request.
func TestOwnershipDeadlineBeforeDiskCompletes(t *testing.T) {
	r := newOwnershipRig(t, raid.RAID1, 2, array.RetryPolicy{OpDeadline: 0.005})
	r.a.Groups()[0].Disks()[0].SetFailSlow(0, 0, 100)
	// Even rows read from disk 0 (the slow side), odd rows from disk 1.
	for i := int64(0); i < 3; i++ {
		r.submit(2*i*strip, 4096, false)
	}
	for k := 1; k <= 40; k++ {
		k := k
		r.at(0.006+float64(k)*0.004, func() {
			r.submit(int64(k%7)*strip, 4096, k%3 == 0)
		})
	}
	r.finish()
	if fs := r.a.FaultStats(); fs.Timeouts == 0 {
		t.Fatal("no attempt timed out; the scenario does not exercise the deadline path")
	}
}

// TestOwnershipTransientErrorRetry retries flaky-member ops after a
// backoff while other requests churn the free lists.
func TestOwnershipTransientErrorRetry(t *testing.T) {
	r := newOwnershipRig(t, raid.RAID5, 4, array.RetryPolicy{MaxRetries: 3, Backoff: 0.002, BackoffFactor: 2})
	r.a.Groups()[0].Disks()[2].SetTransientErrorProb(0.5)
	for k := 0; k < 60; k++ {
		k := k
		r.at(float64(k)*0.003, func() {
			r.submit(int64(k%9)*strip+int64(k%4)*8192, 8192, k%4 == 1)
		})
	}
	r.finish()
	if fs := r.a.FaultStats(); fs.Retries == 0 {
		t.Fatal("no retry issued; the scenario does not exercise the retry path")
	}
}

// TestOwnershipDiskFailsWithQueuedOps kills a member while a burst of
// requests is queued on it: every queued op comes back Failed and is
// re-served through RAID-5 reconstruction.
func TestOwnershipDiskFailsWithQueuedOps(t *testing.T) {
	r := newOwnershipRig(t, raid.RAID5, 4, array.RetryPolicy{MaxRetries: 1})
	for k := 0; k < 24; k++ {
		// Row 0 places logical strip 0 on disk 0; rows advance by 3 strips.
		r.submit(int64(k%4)*3*strip, 4096, k%2 == 1)
	}
	if q := r.a.Groups()[0].Disks()[0].QueueLen(); q == 0 {
		t.Fatal("no ops queued on the disk about to fail")
	}
	r.at(1e-5, func() {
		if err := r.a.FailDisk(0, 0); err != nil {
			t.Error(err)
		}
	})
	r.finish()
	if r.a.LostIOs() != 0 {
		t.Fatalf("lost %d IOs despite redundancy", r.a.LostIOs())
	}
}

// TestOwnershipRAID5Redirect serves reads, small writes and full-stripe
// writes on a degraded RAID-5 group, so the ops touching the failed
// member take the redirect path.
func TestOwnershipRAID5Redirect(t *testing.T) {
	r := newOwnershipRig(t, raid.RAID5, 4, array.RetryPolicy{})
	if err := r.a.FailDisk(0, 1); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		off := int64(k%5) * strip
		switch k % 3 {
		case 0:
			r.submit(off, 4096, false)
		case 1:
			r.submit(off, 4096, true)
		default:
			r.submit(int64(k%5)*3*strip, 3*strip, true) // full stripe row
		}
	}
	r.finish()
	if r.a.LostIOs() != 0 {
		t.Fatalf("lost %d IOs on a singly degraded RAID-5 group", r.a.LostIOs())
	}
}
