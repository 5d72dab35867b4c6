package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadMissThenHit(t *testing.T) {
	c := New(1024, 256) // 4 blocks
	misses, ev := c.Read(0, 256)
	if len(ev) != 0 {
		t.Fatalf("unexpected evictions %v", ev)
	}
	if len(misses) != 1 || misses[0] != (Range{0, 256}) {
		t.Fatalf("misses = %v, want [{0 256}]", misses)
	}
	misses, _ = c.Read(0, 256)
	if len(misses) != 0 {
		t.Fatalf("second read missed: %v", misses)
	}
	hits, ms, _ := c.Stats()
	if hits != 1 || ms != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1,1", hits, ms)
	}
}

func TestReadSpanningBlocksCoalesces(t *testing.T) {
	c := New(4096, 256)
	misses, _ := c.Read(100, 600) // blocks 0..2
	if len(misses) != 1 {
		t.Fatalf("misses = %v, want one coalesced range", misses)
	}
	if misses[0] != (Range{0, 768}) {
		t.Errorf("miss range = %v, want {0 768}", misses[0])
	}
}

func TestPartialHitSplitsMisses(t *testing.T) {
	c := New(4096, 256)
	c.Read(256, 256) // cache block 1
	misses, _ := c.Read(0, 768)
	// Blocks 0 and 2 miss; block 1 hits. Non-adjacent: two ranges.
	if len(misses) != 2 {
		t.Fatalf("misses = %v, want two ranges", misses)
	}
	if misses[0] != (Range{0, 256}) || misses[1] != (Range{512, 256}) {
		t.Errorf("misses = %v", misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(512, 256) // 2 blocks
	c.Read(0, 256)     // block 0
	c.Read(256, 256)   // block 1
	c.Read(0, 256)     // touch block 0 -> block 1 is LRU
	c.Read(512, 256)   // block 2 evicts block 1
	if !c.Contains(0) || c.Contains(256) || !c.Contains(512) {
		t.Error("LRU evicted the wrong block")
	}
}

func TestWriteBackEvictionDestages(t *testing.T) {
	c := New(512, 256) // 2 blocks
	if ev := c.Write(0, 256); len(ev) != 0 {
		t.Fatalf("unexpected destage %v", ev)
	}
	c.Write(256, 256)
	ev := c.Write(512, 256) // evicts dirty block 0
	if len(ev) != 1 || ev[0] != (Range{0, 256}) {
		t.Fatalf("destage = %v, want [{0 256}]", ev)
	}
	if c.DirtyLen() != 2 {
		t.Errorf("DirtyLen = %d, want 2", c.DirtyLen())
	}
}

func TestCleanEvictionIsFree(t *testing.T) {
	c := New(512, 256)
	c.Read(0, 256)
	c.Read(256, 256)
	if _, ev := c.Read(512, 256); len(ev) != 0 {
		t.Fatalf("clean eviction produced destages %v", ev)
	}
}

func TestWriteHitMarksDirtyOnce(t *testing.T) {
	c := New(1024, 256)
	c.Write(0, 256)
	c.Write(0, 256)
	if c.DirtyLen() != 1 {
		t.Errorf("DirtyLen = %d, want 1", c.DirtyLen())
	}
}

func TestReadDoesNotCleanDirty(t *testing.T) {
	c := New(1024, 256)
	c.Write(0, 256)
	c.Read(0, 256)
	if c.DirtyLen() != 1 {
		t.Error("read hit must not clean a dirty block")
	}
}

func TestFlushOldest(t *testing.T) {
	c := New(2048, 256)
	c.Write(0, 256)
	c.Write(512, 256)
	c.Write(1024, 256)
	out := c.FlushOldest(2)
	// Oldest-first: blocks 0 and 2 (non-adjacent) -> two ranges.
	if len(out) != 2 || out[0] != (Range{0, 256}) || out[1] != (Range{512, 256}) {
		t.Fatalf("flush = %v", out)
	}
	if c.DirtyLen() != 1 {
		t.Errorf("DirtyLen = %d, want 1", c.DirtyLen())
	}
	// Flushed blocks stay resident and clean.
	if misses, _ := c.Read(0, 256); len(misses) != 0 {
		t.Error("flushed block evicted from cache")
	}
	// Evicting a now-clean block must not destage again.
	if out := c.FlushOldest(10); len(out) != 1 {
		t.Errorf("second flush = %v, want remaining single range", out)
	}
}

func TestZeroCapacityPassesThrough(t *testing.T) {
	c := New(0, 256)
	misses, ev := c.Read(100, 50)
	if len(ev) != 0 || len(misses) != 1 || misses[0] != (Range{100, 50}) {
		t.Fatalf("zero-cap read = %v/%v", misses, ev)
	}
	w := c.Write(100, 50)
	if len(w) != 1 || w[0] != (Range{100, 50}) {
		t.Fatalf("zero-cap write = %v", w)
	}
}

func TestCoalesceHandlesDuplicatesAndGaps(t *testing.T) {
	got := appendCoalesced(nil, []int64{5, 1, 2, 2, 9, 0}, 10)
	want := []Range{{0, 30}, {50, 10}, {90, 10}}
	if len(got) != len(want) {
		t.Fatalf("coalesce = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coalesce = %v, want %v", got, want)
		}
	}
}

// Property: resident block count never exceeds capacity, and a block is
// dirty only if resident.
func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(16*256, 256)
		for i := 0; i < 2000; i++ {
			off := int64(rng.Intn(100)) * 256
			size := int64(1 + rng.Intn(1000))
			switch rng.Intn(3) {
			case 0:
				c.Read(off, size)
			case 1:
				c.Write(off, size)
			case 2:
				c.FlushOldest(rng.Intn(4))
			}
			if c.Len() > 16 {
				return false
			}
			if c.DirtyLen() > c.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: total destaged bytes never exceed total dirtied bytes.
func TestDestageConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(8*512, 512)
	var dirtied, destaged int64
	for i := 0; i < 5000; i++ {
		off := int64(rng.Intn(64)) * 512
		if rng.Intn(2) == 0 {
			before := c.DirtyLen()
			ev := c.Write(off, 512)
			after := c.DirtyLen()
			dirtied += int64(after-before) * 512
			for _, r := range ev {
				destaged += r.Size
				dirtied += r.Size // the evicted dirty block's slot was freed
			}
		} else {
			for _, r := range c.FlushOldest(rng.Intn(3)) {
				destaged += r.Size
			}
		}
	}
	// Remaining dirty blocks haven't been destaged yet.
	if destaged > dirtied {
		t.Errorf("destaged %d > dirtied %d", destaged, dirtied)
	}
}

func BenchmarkCacheReadHit(b *testing.B) {
	c := New(1<<30, 64<<10)
	c.Read(0, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(0, 64<<10)
	}
}

func BenchmarkCacheWriteMixed(b *testing.B) {
	c := New(64<<20, 64<<10)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(1<<14)) * (64 << 10)
		if i%3 == 0 {
			c.Write(off, 8192)
		} else {
			c.Read(off, 8192)
		}
	}
}
