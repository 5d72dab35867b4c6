//go:build !race

// Allocation counts differ under the race detector, so these run in
// non-race builds only.

package array

import (
	"testing"

	"hibernator/internal/diskmodel"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
)

// TestSubmitSteadyStateAllocs pins the logical request path — extent
// lookup, RAID mapping, fan-out, disk service and fan-in — at zero
// allocations per request once the op free lists are warm.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	const strip = 64 << 10
	cases := []struct {
		name  string
		level raid.Level
		disks int
		off   int64
		size  int64
		write bool
	}{
		{"raid5-read", raid.RAID5, 4, 5000, 8192, false},
		{"raid5-small-write", raid.RAID5, 4, 5000, 8192, true},
		{"raid5-full-stripe-write", raid.RAID5, 4, 3 * strip, 3 * strip, true},
		{"raid1-read", raid.RAID1, 4, 5000, 8192, false},
		{"raid1-write", raid.RAID1, 4, 5000, 8192, true},
		{"raid0-read", raid.RAID0, 4, 5000, 3 * strip, false},
		{"raid0-write", raid.RAID0, 4, 5000, 3 * strip, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := simevent.New()
			spec := diskmodel.MultiSpeedUltrastar(1, 0)
			a, err := New(Config{
				Engine: e, Spec: &spec, Groups: 2, GroupDisks: c.disks, Level: c.level,
				ExtentBytes: 64 << 20, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			completed := 0
			done := func(float64) { completed++ }
			i := int64(0)
			submit := func() {
				// Walk extents so both groups and every member serve.
				a.Submit(i%8*(64<<20)+c.off, c.size, c.write, done)
				i++
				e.RunAll()
			}
			for k := 0; k < 64; k++ {
				submit()
			}
			if got := testing.AllocsPerRun(500, submit); got != 0 {
				t.Errorf("%v allocs per request, want 0", got)
			}
			if completed != int(i) || a.InFlight() != 0 {
				t.Fatalf("completed %d of %d, in flight %d", completed, i, a.InFlight())
			}
		})
	}
}
