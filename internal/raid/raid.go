// Package raid maps logical volume addresses onto the disks of a RAID
// group and expands writes into the physical operations parity maintenance
// requires. It is pure address arithmetic: the array layer turns the
// resulting PhysIO list into diskmodel requests.
//
// RAID-5 uses the left-symmetric layout (parity rotates across disks,
// starting at the last disk for row 0). Partial-stripe writes expand to
// read-modify-write (old data + old parity reads, new data + new parity
// writes); writes covering a full stripe row skip the pre-reads.
package raid

import "fmt"

// Level selects the redundancy scheme of a group.
type Level int

// Supported RAID levels.
const (
	RAID0 Level = iota
	RAID5
	// RAID1 stripes across mirror pairs (RAID-10): even disk counts,
	// reads served by one side of the pair (alternating by row), writes
	// duplicated to both.
	RAID1
)

// String names the level.
func (l Level) String() string {
	switch l {
	case RAID0:
		return "RAID0"
	case RAID5:
		return "RAID5"
	case RAID1:
		return "RAID1"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// IOKind classifies a physical operation for statistics.
type IOKind int

// Physical operation kinds.
const (
	DataRead IOKind = iota
	DataWrite
	ParityRead
	ParityWrite
)

// String names the kind.
func (k IOKind) String() string {
	switch k {
	case DataRead:
		return "data-read"
	case DataWrite:
		return "data-write"
	case ParityRead:
		return "parity-read"
	case ParityWrite:
		return "parity-write"
	default:
		return fmt.Sprintf("IOKind(%d)", int(k))
	}
}

// PhysIO is one physical disk operation within a group.
type PhysIO struct {
	Disk   int // index within the group
	Offset int64
	Size   int64
	Write  bool
	Kind   IOKind
}

// Geometry describes a RAID group.
type Geometry struct {
	Level      Level
	Disks      int
	StripeUnit int64 // bytes per strip
}

// Validate reports the first configuration error.
func (g Geometry) Validate() error {
	switch {
	case g.Disks <= 0:
		return fmt.Errorf("raid: group needs at least one disk, got %d", g.Disks)
	case g.StripeUnit <= 0:
		return fmt.Errorf("raid: stripe unit must be positive, got %d", g.StripeUnit)
	case g.Level == RAID5 && g.Disks < 3:
		return fmt.Errorf("raid: RAID5 needs >= 3 disks, got %d", g.Disks)
	case g.Level == RAID1 && (g.Disks < 2 || g.Disks%2 != 0):
		return fmt.Errorf("raid: RAID1 needs an even disk count >= 2, got %d", g.Disks)
	case g.Level != RAID0 && g.Level != RAID5 && g.Level != RAID1:
		return fmt.Errorf("raid: unsupported level %v", g.Level)
	}
	return nil
}

// dataDisks returns the number of strips per row that hold data.
func (g Geometry) dataDisks() int {
	switch g.Level {
	case RAID5:
		return g.Disks - 1
	case RAID1:
		return g.Disks / 2
	default:
		return g.Disks
	}
}

// LogicalCapacity returns the usable bytes given a per-disk capacity,
// rounded down to whole stripe rows.
func (g Geometry) LogicalCapacity(diskCapacity int64) int64 {
	rows := diskCapacity / g.StripeUnit
	return rows * int64(g.dataDisks()) * g.StripeUnit
}

// parityDisk returns which disk holds parity for a stripe row
// (left-symmetric rotation). RAID0 has none (-1).
func (g Geometry) parityDisk(row int64) int {
	if g.Level != RAID5 {
		return -1
	}
	return int((int64(g.Disks) - 1 - row%int64(g.Disks)) % int64(g.Disks))
}

// stripLocation places logical strip index s at (disk, row). For RAID1
// it returns the read-primary side of the mirror pair, alternating by row
// to spread read load.
func (g Geometry) stripLocation(s int64) (disk int, row int64) {
	dd := int64(g.dataDisks())
	row = s / dd
	j := s % dd
	switch g.Level {
	case RAID5:
		p := int64(g.parityDisk(row))
		disk = int((p + 1 + j) % int64(g.Disks))
	case RAID1:
		disk = int(2*j) + int(row%2)
	default:
		disk = int(j)
	}
	return disk, row
}

// mirrorOf returns the other side of a RAID1 pair.
func (g Geometry) mirrorOf(disk int) int { return disk ^ 1 }

// piece is a fragment of the logical access within one strip.
type piece struct {
	strip  int64 // logical strip index
	within int64 // offset inside the strip
	size   int64
}

// pieceAt returns the fragment of [off, end) that starts at off and stays
// inside one strip. Walking off forward by each piece's size visits the
// access strip by strip in ascending order.
func (g Geometry) pieceAt(off, end int64) piece {
	within := off % g.StripeUnit
	return piece{strip: off / g.StripeUnit, within: within, size: min(g.StripeUnit-within, end-off)}
}

// Map translates a logical byte access into the physical operations it
// requires. Reads touch only data strips; RAID5 writes additionally touch
// parity. The result is ordered: all reads first, then all writes, since
// read-modify-write must complete its pre-reads before committing — the
// array layer preserves this two-phase structure.
func (g Geometry) Map(off, size int64, write bool) []PhysIO {
	return g.AppendMap(nil, off, size, write)
}

// AppendMap is Map writing into a caller-owned buffer: it appends the
// access's physical operations to dst and returns the extended slice.
// Passing a reused buffer truncated to zero length (buf[:0]) maps without
// allocating once the buffer has grown to the largest access seen.
func (g Geometry) AppendMap(dst []PhysIO, off, size int64, write bool) []PhysIO {
	if off < 0 || size <= 0 {
		panic(fmt.Sprintf("raid: invalid access [%d,+%d)", off, size))
	}
	end := off + size
	if write && g.Level == RAID5 {
		dst = g.appendRAID5Phase(dst, off, end, false)
		return g.appendRAID5Phase(dst, off, end, true)
	}
	start := len(dst)
	for p := off; p < end; {
		pc := g.pieceAt(p, end)
		disk, row := g.stripLocation(pc.strip)
		io := PhysIO{Disk: disk, Offset: row*g.StripeUnit + pc.within, Size: pc.size, Kind: DataRead}
		if write {
			io.Write, io.Kind = true, DataWrite
		}
		dst = append(dst, io)
		if write && g.Level == RAID1 {
			io.Disk = g.mirrorOf(disk)
			dst = append(dst, io)
		}
		p += pc.size
	}
	return coalescePhys(dst, start)
}

// appendRAID5Phase appends one phase of a RAID-5 write of [off, end): the
// pre-reads (old data and old parity of every partially written stripe
// row) or the writes (new data, then new parity, row by row). Pieces
// arrive in ascending strip order, so each stripe row is one consecutive
// run of the access and is sized before its operations are emitted.
func (g Geometry) appendRAID5Phase(dst []PhysIO, off, end int64, writes bool) []PhysIO {
	start := len(dst)
	rowBytes := int64(g.dataDisks()) * g.StripeUnit
	for rowOff := off; rowOff < end; {
		row := rowOff / rowBytes
		rowEnd := min((row+1)*rowBytes, end)
		fullStripe := rowEnd-rowOff == rowBytes
		// Union of the row's within-strip ranges sizes the parity I/O (a
		// whole strip for a full stripe).
		lo, hi := g.StripeUnit, int64(0)
		for p := rowOff; p < rowEnd; {
			pc := g.pieceAt(p, rowEnd)
			lo, hi = min(lo, pc.within), max(hi, pc.within+pc.size)
			if writes || !fullStripe {
				disk, r := g.stripLocation(pc.strip)
				io := PhysIO{Disk: disk, Offset: r*g.StripeUnit + pc.within, Size: pc.size, Kind: DataRead}
				if writes {
					io.Write, io.Kind = true, DataWrite
				}
				dst = append(dst, io)
			}
			p += pc.size
		}
		parity := PhysIO{Disk: g.parityDisk(row), Offset: row*g.StripeUnit + lo, Size: hi - lo}
		switch {
		case writes:
			parity.Write, parity.Kind = true, ParityWrite
			dst = append(dst, parity)
		case !fullStripe:
			parity.Kind = ParityRead
			dst = append(dst, parity)
		}
		rowOff = rowEnd
	}
	return coalescePhys(dst, start)
}

// coalescePhys merges, within ios[start:], physically contiguous
// operations on the same disk with the same kind — a long sequential
// logical run lands as one streamed transfer per disk instead of a
// strip-sized I/O per row. The input is ordered by logical address, so
// per-disk operations arrive in ascending physical order already; a
// single stable in-place pass suffices and preserves the read-before-write
// phase structure.
func coalescePhys(ios []PhysIO, start int) []PhysIO {
	out := ios[:start]
	for _, io := range ios[start:] {
		// The disk's latest kept op is the last one in out with its index.
		merged := false
		for j := len(out) - 1; j >= start; j-- {
			if prev := &out[j]; prev.Disk == io.Disk {
				if prev.Kind == io.Kind && prev.Offset+prev.Size == io.Offset {
					prev.Size += io.Size
					merged = true
				}
				break
			}
		}
		if !merged {
			out = append(out, io)
		}
	}
	return out
}

// Phases splits a Map result into its pre-read and write phases. The
// second phase must not start before the first completes.
func Phases(ios []PhysIO) (reads, writes []PhysIO) {
	for i, io := range ios {
		if io.Write {
			return ios[:i], ios[i:]
		}
	}
	return ios, nil
}
