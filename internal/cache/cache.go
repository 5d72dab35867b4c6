// Package cache implements the array controller cache: a block-granular
// LRU with write-back semantics. Reads that hit are absorbed; writes are
// absorbed and marked dirty; evicting a dirty block emits a destage write
// the array must perform. A background destager can drain dirty blocks
// oldest-first.
//
// The cache is pure bookkeeping — it never performs I/O itself; it tells
// the caller which byte ranges must move.
package cache

import "fmt"

// Range is a contiguous logical byte range.
type Range struct {
	Off  int64
	Size int64
}

// Cache is a block LRU. Not safe for concurrent use; the simulator is
// single-threaded.
//
// Resident blocks are entries threaded on two intrusive lists: the LRU
// list (every entry, most recent first) and the dirty list (dirty
// entries, oldest first, for destage). An insert into a full cache reuses
// the entry it evicts, and the ranges Read, Write and FlushOldest return
// are built in scratch buffers, so a warm cache allocates nothing.
type Cache struct {
	blockSize int64
	capacity  int // in blocks

	entries              map[int64]*entry
	lruHead, lruTail     *entry // head = most recent
	dirtyHead, dirtyTail *entry // head = oldest dirty
	dirtyLen             int

	// Scratch buffers behind the returned ranges (see Read) and the block
	// lists they are coalesced from.
	missBuf, rangeBuf []Range
	blockBuf          []int64

	hits       uint64
	misses     uint64
	destages   uint64
	writeHits  uint64
	writeAlloc uint64

	// lookups counters exist so `hits + misses == readLookups` (and the
	// write-side equivalent) can be checked as an invariant; they are
	// incremented in exactly one place each.
	readLookups  uint64
	writeLookups uint64
}

// entry is one resident block with its links on the LRU list and, while
// dirty, on the dirty list.
type entry struct {
	block                int64
	dirty                bool
	lruPrev, lruNext     *entry
	dirtyPrev, dirtyNext *entry
}

// New creates a cache of capacityBytes split into blockSize blocks. A zero
// or negative capacity yields a cache that misses everything (useful for
// "no cache" configurations).
func New(capacityBytes, blockSize int64) *Cache {
	if blockSize <= 0 {
		panic(fmt.Sprintf("cache: block size must be positive, got %d", blockSize))
	}
	capBlocks := int(capacityBytes / blockSize)
	if capBlocks < 0 {
		capBlocks = 0
	}
	return &Cache{
		blockSize: blockSize,
		capacity:  capBlocks,
		entries:   map[int64]*entry{},
	}
}

// BlockSize returns the cache block size in bytes.
func (c *Cache) BlockSize() int64 { return c.blockSize }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return len(c.entries) }

// DirtyLen returns the number of dirty resident blocks.
func (c *Cache) DirtyLen() int { return c.dirtyLen }

// Stats returns lifetime hit/miss/destage counters. Hits and misses count
// blocks, not requests.
func (c *Cache) Stats() (hits, misses, destages uint64) {
	return c.hits, c.misses, c.destages
}

// Lookups returns how many block lookups Read and Write performed. Every
// read lookup is a hit or a miss, and every write lookup a write-hit or a
// write-allocate — the conservation the invariant checker verifies.
func (c *Cache) Lookups() (read, write uint64) {
	return c.readLookups, c.writeLookups
}

// WriteStats returns the write-side block counters: blocks absorbed into
// resident entries and blocks allocated on write.
func (c *Cache) WriteStats() (writeHits, writeAllocs uint64) {
	return c.writeHits, c.writeAlloc
}

// blocksOf enumerates the block indices overlapping [off, off+size).
func (c *Cache) blocksOf(off, size int64) (first, last int64) {
	if off < 0 || size <= 0 {
		panic(fmt.Sprintf("cache: invalid range [%d,+%d)", off, size))
	}
	return off / c.blockSize, (off + size - 1) / c.blockSize
}

// Read looks up a logical range. It returns the byte ranges that missed
// (coalesced, block-aligned) and any dirty blocks evicted while inserting
// the missed blocks. The caller must read the misses from the array and
// write back the evictions.
//
// Both slices alias the cache's scratch buffers: they stay valid until
// the next Read, Write or FlushOldest on this cache. A caller that needs
// them longer must copy them.
func (c *Cache) Read(off, size int64) (misses, evictions []Range) {
	if c.capacity == 0 {
		c.missBuf = append(c.missBuf[:0], Range{Off: off, Size: size})
		return c.missBuf, nil
	}
	first, last := c.blocksOf(off, size)
	c.blockBuf = c.blockBuf[:0]
	for b := first; b <= last; b++ {
		c.readLookups++
		if e, ok := c.entries[b]; ok {
			c.hits++
			c.touch(e)
			continue
		}
		c.misses++
		c.blockBuf = append(c.blockBuf, b)
	}
	c.rangeBuf = c.rangeBuf[:0]
	for _, b := range c.blockBuf {
		c.insert(b, false)
	}
	c.missBuf = appendCoalesced(c.missBuf[:0], c.blockBuf, c.blockSize)
	return c.missBuf, c.rangeBuf
}

// Write absorbs a logical write, marking the covered blocks dirty, and
// returns any dirty blocks evicted to make room. Partially covered blocks
// are treated as allocate-on-write (no fetch-before-write; the simulated
// destage rewrites whole blocks, a standard simplification).
//
// The result aliases a scratch buffer and stays valid until the next
// Read, Write or FlushOldest on this cache.
func (c *Cache) Write(off, size int64) (evictions []Range) {
	if c.capacity == 0 {
		c.rangeBuf = append(c.rangeBuf[:0], Range{Off: off, Size: size})
		return c.rangeBuf
	}
	first, last := c.blocksOf(off, size)
	c.rangeBuf = c.rangeBuf[:0]
	for b := first; b <= last; b++ {
		c.writeLookups++
		if e, ok := c.entries[b]; ok {
			c.writeHits++
			c.touch(e)
			c.markDirty(e)
			continue
		}
		c.writeAlloc++
		c.insert(b, true)
	}
	return c.rangeBuf
}

// insert makes a block resident as the most recent entry. A full cache
// first evicts its least recent entry — the cache never exceeds capacity,
// so that is at most one — appending the block's destage range to
// rangeBuf when it was dirty, and reuses the entry for the new block.
func (c *Cache) insert(block int64, dirty bool) {
	var e *entry
	if len(c.entries) < c.capacity {
		e = &entry{}
	} else {
		e = c.lruTail
		c.unlinkLRU(e)
		delete(c.entries, e.block)
		if e.dirty {
			c.destages++
			c.rangeBuf = append(c.rangeBuf, Range{Off: e.block * c.blockSize, Size: c.blockSize})
			c.unlinkDirty(e)
		}
		*e = entry{}
	}
	e.block = block
	c.entries[block] = e
	c.pushLRU(e)
	if dirty {
		c.markDirty(e)
	}
}

// touch moves a resident entry to the most recent end of the LRU list.
func (c *Cache) touch(e *entry) {
	if c.lruHead != e {
		c.unlinkLRU(e)
		c.pushLRU(e)
	}
}

func (c *Cache) pushLRU(e *entry) {
	e.lruPrev, e.lruNext = nil, c.lruHead
	if c.lruHead != nil {
		c.lruHead.lruPrev = e
	} else {
		c.lruTail = e
	}
	c.lruHead = e
}

func (c *Cache) unlinkLRU(e *entry) {
	if e.lruPrev != nil {
		e.lruPrev.lruNext = e.lruNext
	} else {
		c.lruHead = e.lruNext
	}
	if e.lruNext != nil {
		e.lruNext.lruPrev = e.lruPrev
	} else {
		c.lruTail = e.lruPrev
	}
	e.lruPrev, e.lruNext = nil, nil
}

// markDirty appends a clean entry to the dirty list (newest end).
func (c *Cache) markDirty(e *entry) {
	if e.dirty {
		return
	}
	e.dirty = true
	e.dirtyPrev, e.dirtyNext = c.dirtyTail, nil
	if c.dirtyTail != nil {
		c.dirtyTail.dirtyNext = e
	} else {
		c.dirtyHead = e
	}
	c.dirtyTail = e
	c.dirtyLen++
}

// unlinkDirty removes a dirty entry from the dirty list and clears its
// dirty bit.
func (c *Cache) unlinkDirty(e *entry) {
	if e.dirtyPrev != nil {
		e.dirtyPrev.dirtyNext = e.dirtyNext
	} else {
		c.dirtyHead = e.dirtyNext
	}
	if e.dirtyNext != nil {
		e.dirtyNext.dirtyPrev = e.dirtyPrev
	} else {
		c.dirtyTail = e.dirtyPrev
	}
	e.dirtyPrev, e.dirtyNext = nil, nil
	e.dirty = false
	c.dirtyLen--
}

// FlushOldest cleans up to max dirty blocks (oldest first) and returns the
// ranges to write out. The blocks stay resident, now clean.
//
// The result aliases a scratch buffer and stays valid until the next
// Read, Write or FlushOldest on this cache.
func (c *Cache) FlushOldest(max int) []Range {
	c.blockBuf = c.blockBuf[:0]
	for i := 0; i < max && c.dirtyHead != nil; i++ {
		e := c.dirtyHead
		c.unlinkDirty(e)
		c.destages++
		c.blockBuf = append(c.blockBuf, e.block)
	}
	c.rangeBuf = appendCoalesced(c.rangeBuf[:0], c.blockBuf, c.blockSize)
	return c.rangeBuf
}

// Fingerprint digests the cache's full structural state — the resident
// set in LRU order with per-block dirty bits, and the destage queue in
// age order — for snapshot comparison. Counters are deliberately
// excluded; they have their own accessors and snapshot keys.
func (c *Cache) Fingerprint() uint64 {
	const prime = 1099511628211
	mix := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
		return h
	}
	h := mix(14695981039346656037, uint64(c.blockSize))
	h = mix(h, uint64(c.capacity))
	for e := c.lruHead; e != nil; e = e.lruNext {
		v := uint64(e.block) << 1
		if e.dirty {
			v |= 1
		}
		h = mix(h, v)
	}
	for e := c.dirtyHead; e != nil; e = e.dirtyNext {
		h = mix(h, uint64(e.block))
	}
	return h
}

// Contains reports whether the block holding the byte offset is resident.
func (c *Cache) Contains(off int64) bool {
	_, ok := c.entries[off/c.blockSize]
	return ok
}

// appendCoalesced sorts blocks in place and appends them to dst as merged
// byte ranges of bs-byte blocks: adjacent blocks merge and duplicates
// collapse.
func appendCoalesced(dst []Range, blocks []int64, bs int64) []Range {
	if len(blocks) == 0 {
		return dst
	}
	// Insertion sort: lists are tiny and mostly sorted.
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j] < blocks[j-1]; j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
	start, prev := blocks[0], blocks[0]
	for _, b := range blocks[1:] {
		if b == prev { // duplicate
			continue
		}
		if b == prev+1 {
			prev = b
			continue
		}
		dst = append(dst, Range{Off: start * bs, Size: (prev - start + 1) * bs})
		start, prev = b, b
	}
	return append(dst, Range{Off: start * bs, Size: (prev - start + 1) * bs})
}
