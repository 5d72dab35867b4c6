//go:build !race

// Allocation counts differ under the race detector, so these run in
// non-race builds only.

package diskmodel

import (
	"testing"

	"hibernator/internal/simevent"
)

// TestSubmitSteadyStateAllocs pins one request's trip through the disk —
// queueing, service and the completion event — at zero allocations when
// the caller reuses its Request.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	e := simevent.New()
	spec := MultiSpeedUltrastar(1, 0)
	d := New(e, &spec, Config{Seed: 1})
	completed := 0
	done := func(*Request, float64) { completed++ }
	var req Request
	lba := int64(0)
	submit := func() {
		lba = (lba + 7<<20 + 4096) % (spec.CapacityBytes - 8192)
		req = Request{LBA: lba, Size: 8192, Done: done}
		d.Submit(&req)
		e.RunAll()
	}
	submit()
	if got := testing.AllocsPerRun(1000, submit); got != 0 {
		t.Errorf("%v allocs per request, want 0", got)
	}
	if completed != 1002 { // AllocsPerRun adds one warm-up call
		t.Fatalf("completed %d requests, want 1002", completed)
	}
}
