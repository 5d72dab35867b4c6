//go:build !race

// Allocation counts differ under the race detector, so these run in
// non-race builds only.

package raid

import "testing"

// TestAppendMapAllocs pins mapping into a reused buffer at zero
// allocations for every level and access shape.
func TestAppendMapAllocs(t *testing.T) {
	const su = 64 << 10
	for _, g := range []Geometry{{RAID0, 4, su}, {RAID5, 5, su}, {RAID1, 4, su}} {
		for _, acc := range []struct {
			off, size int64
			write     bool
		}{
			{5000, 8192, false},
			{5000, 8192, true},
			{4 * su, 4 * su, true},   // full RAID-5 stripe row
			{su / 2, 9 * su, true},   // partial rows at both ends
			{su / 2, 40 * su, false}, // long sequential read
		} {
			buf := g.AppendMap(nil, acc.off, acc.size, acc.write)
			got := testing.AllocsPerRun(100, func() {
				buf = g.AppendMap(buf[:0], acc.off, acc.size, acc.write)
			})
			if got != 0 {
				t.Errorf("%v AppendMap(%d,%d,%v): %v allocs, want 0", g, acc.off, acc.size, acc.write, got)
			}
		}
	}
}
