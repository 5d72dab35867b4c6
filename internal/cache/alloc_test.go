//go:build !race

// Allocation counts differ under the race detector, so these run in
// non-race builds only.

package cache

import "testing"

// TestSteadyStateAllocs pins warm-cache Read and Write at zero
// allocations, on hits and on misses that evict dirty blocks.
func TestSteadyStateAllocs(t *testing.T) {
	const bs = 64 << 10
	c := New(64*bs, bs)
	for b := int64(0); b < 64; b++ {
		c.Write(b*bs, bs) // fill with dirty blocks
	}
	if got := testing.AllocsPerRun(1000, func() {
		c.Read(3*bs, 2*bs)
		c.Write(5*bs+100, 4096)
	}); got != 0 {
		t.Errorf("hits: %v allocs, want 0", got)
	}
	next := int64(64)
	evicted := int64(0)
	if got := testing.AllocsPerRun(1000, func() {
		// Each iteration inserts two new blocks, a read miss and a write
		// allocation; each insert evicts the least recent block, dirty
		// from the fill or from an earlier iteration's write.
		_, ev := c.Read(next*bs, bs)
		next++
		for _, r := range c.Write(next*bs, bs) {
			evicted += r.Size
		}
		next++
		for _, r := range ev {
			evicted += r.Size
		}
	}); got != 0 {
		t.Errorf("dirty evictions: %v allocs, want 0", got)
	}
	if evicted == 0 {
		t.Fatal("no dirty block was evicted")
	}
}
