package raid

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := []Geometry{
		{RAID0, 1, 65536},
		{RAID0, 8, 4096},
		{RAID5, 3, 65536},
		{RAID5, 16, 65536},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", g, err)
		}
	}
	bad := []Geometry{
		{RAID0, 0, 65536},
		{RAID0, 4, 0},
		{RAID5, 2, 65536},
		{Level(9), 4, 65536},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("%+v: expected error", g)
		}
	}
}

func TestLogicalCapacity(t *testing.T) {
	g0 := Geometry{RAID0, 4, 1024}
	if got := g0.LogicalCapacity(10240); got != 4*10240 {
		t.Errorf("RAID0 capacity = %d, want %d", got, 4*10240)
	}
	g5 := Geometry{RAID5, 4, 1024}
	if got := g5.LogicalCapacity(10240); got != 3*10240 {
		t.Errorf("RAID5 capacity = %d, want %d", got, 3*10240)
	}
	// Rounds down to whole rows.
	if got := g5.LogicalCapacity(1536); got != 3*1024 {
		t.Errorf("RAID5 partial-row capacity = %d, want %d", got, 3*1024)
	}
}

func TestRAID0ReadMapping(t *testing.T) {
	g := Geometry{RAID0, 4, 1000}
	ios := g.Map(0, 4000, false)
	if len(ios) != 4 {
		t.Fatalf("got %d IOs, want 4", len(ios))
	}
	for i, io := range ios {
		if io.Disk != i || io.Offset != 0 || io.Size != 1000 || io.Write || io.Kind != DataRead {
			t.Errorf("io %d = %+v", i, io)
		}
	}
	// Second row lands back on disk 0 at offset 1000.
	ios = g.Map(4000, 500, false)
	if len(ios) != 1 || ios[0].Disk != 0 || ios[0].Offset != 1000 {
		t.Errorf("row-1 mapping = %+v", ios)
	}
}

func TestRAID0UnalignedAccessSplits(t *testing.T) {
	g := Geometry{RAID0, 2, 1000}
	ios := g.Map(900, 200, false)
	if len(ios) != 2 {
		t.Fatalf("got %d IOs, want 2: %+v", len(ios), ios)
	}
	if ios[0].Disk != 0 || ios[0].Offset != 900 || ios[0].Size != 100 {
		t.Errorf("first piece %+v", ios[0])
	}
	if ios[1].Disk != 1 || ios[1].Offset != 0 || ios[1].Size != 100 {
		t.Errorf("second piece %+v", ios[1])
	}
}

func TestRAID5ParityRotation(t *testing.T) {
	g := Geometry{RAID5, 4, 1000}
	seen := map[int]bool{}
	for row := int64(0); row < 4; row++ {
		p := g.parityDisk(row)
		if p < 0 || p >= 4 {
			t.Fatalf("row %d parity disk %d out of range", row, p)
		}
		if seen[p] {
			t.Fatalf("parity disk %d repeats within one rotation cycle", p)
		}
		seen[p] = true
	}
	if g.parityDisk(0) != 3 {
		t.Errorf("left-symmetric row 0 parity = %d, want 3", g.parityDisk(0))
	}
	if g.parityDisk(4) != g.parityDisk(0) {
		t.Error("parity rotation must have period Disks")
	}
}

func TestRAID5SmallWriteIsReadModifyWrite(t *testing.T) {
	g := Geometry{RAID5, 5, 65536}
	ios := g.Map(0, 4096, true)
	// 1 data read + 1 parity read + 1 data write + 1 parity write.
	if len(ios) != 4 {
		t.Fatalf("got %d IOs, want 4: %+v", len(ios), ios)
	}
	counts := map[IOKind]int{}
	for _, io := range ios {
		counts[io.Kind]++
		if io.Size != 4096 {
			t.Errorf("io %+v size, want 4096", io)
		}
	}
	for _, k := range []IOKind{DataRead, DataWrite, ParityRead, ParityWrite} {
		if counts[k] != 1 {
			t.Errorf("kind %v count = %d, want 1", k, counts[k])
		}
	}
	reads, writes := Phases(ios)
	if len(reads) != 2 || len(writes) != 2 {
		t.Errorf("phases %d/%d, want 2/2", len(reads), len(writes))
	}
	// Data and parity must be on different disks.
	if ios[0].Disk == ios[1].Disk {
		t.Error("data and parity on same disk")
	}
}

func TestRAID5FullStripeWriteSkipsPrereads(t *testing.T) {
	g := Geometry{RAID5, 5, 65536}
	rowBytes := int64(4) * 65536 // 4 data strips per row
	ios := g.Map(0, rowBytes, true)
	for _, io := range ios {
		if !io.Write {
			t.Fatalf("full-stripe write issued a pre-read: %+v", io)
		}
	}
	// 4 data writes + 1 parity write, parity covering the whole strip.
	if len(ios) != 5 {
		t.Fatalf("got %d IOs, want 5", len(ios))
	}
	var parity *PhysIO
	disks := map[int]bool{}
	for i := range ios {
		if ios[i].Kind == ParityWrite {
			parity = &ios[i]
		}
		if disks[ios[i].Disk] {
			t.Fatalf("two IOs on one disk in a full-stripe write: %+v", ios)
		}
		disks[ios[i].Disk] = true
	}
	if parity == nil || parity.Size != 65536 {
		t.Fatalf("parity write = %+v, want full strip", parity)
	}
}

func TestRAID5MultiRowWrite(t *testing.T) {
	g := Geometry{RAID5, 4, 1000}
	// 3 data strips per row; write 1.5 rows starting at row boundary.
	ios := g.Map(0, 4500, true)
	reads, writes := Phases(ios)
	// Row 0 full (3 data writes + parity write, no reads); row 1 partial
	// (strip reads+writes + parity read+write). Disk 0's row-0 and row-1
	// data writes are physically contiguous and coalesce into one op.
	wantReads := 3  // 2 data (1000+500 split into 2 strips) + 1 parity
	wantWrites := 6 // row0: 3 data + 1 parity; row1: 2 data + 1 parity, minus 1 merged
	if len(reads) != wantReads || len(writes) != wantWrites {
		t.Fatalf("reads=%d writes=%d, want %d/%d\nreads: %+v\nwrites: %+v",
			len(reads), len(writes), wantReads, wantWrites, reads, writes)
	}
}

func TestPhasesNoWrites(t *testing.T) {
	g := Geometry{RAID5, 4, 1000}
	reads, writes := Phases(g.Map(0, 3000, false))
	if len(writes) != 0 || len(reads) != 3 {
		t.Errorf("read mapping phases %d/%d", len(reads), len(writes))
	}
}

// Property: reads of distinct logical strips never collide on (disk,
// physical strip), i.e. the mapping is injective.
func TestMappingInjectiveProperty(t *testing.T) {
	geos := []Geometry{
		{RAID0, 4, 1024},
		{RAID5, 4, 1024},
		{RAID5, 7, 1024},
	}
	for _, g := range geos {
		seen := map[string]int64{}
		for s := int64(0); s < 5000; s++ {
			disk, row := g.stripLocation(s)
			key := fmt.Sprintf("%d/%d", disk, row)
			if prev, dup := seen[key]; dup {
				t.Fatalf("%v: strips %d and %d both map to %s", g, prev, s, key)
			}
			seen[key] = s
		}
	}
}

// Property: data strips never land on their row's parity disk.
func TestDataAvoidsParityDiskProperty(t *testing.T) {
	f := func(rawStrip uint32, rawDisks uint8) bool {
		disks := 3 + int(rawDisks%14)
		g := Geometry{RAID5, disks, 4096}
		s := int64(rawStrip % 1_000_000)
		disk, row := g.stripLocation(s)
		return disk != g.parityDisk(row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: mapped read bytes exactly cover the logical request.
func TestReadCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	geos := []Geometry{
		{RAID0, 3, 700},
		{RAID5, 5, 512},
	}
	for iter := 0; iter < 500; iter++ {
		g := geos[iter%len(geos)]
		off := int64(rng.Intn(100000))
		size := int64(1 + rng.Intn(9000))
		total := int64(0)
		for _, io := range g.Map(off, size, false) {
			total += io.Size
			if io.Size <= 0 || io.Size > size {
				t.Fatalf("io size %d out of range (coalesced ops are bounded by the request)", io.Size)
			}
			if io.Offset < 0 {
				t.Fatalf("negative physical offset %d", io.Offset)
			}
			if io.Disk < 0 || io.Disk >= g.Disks {
				t.Fatalf("disk %d out of range", io.Disk)
			}
		}
		if total != size {
			t.Fatalf("%v Map(%d,%d) covers %d bytes", g, off, size, total)
		}
	}
}

// Property: RAID5 write amplification is bounded: every written strip
// piece yields at most 2 IOs on its data disk plus shared parity IOs, and
// a full-stripe write yields exactly dataDisks+1.
func TestWriteAmplificationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := Geometry{RAID5, 6, 2048}
	for iter := 0; iter < 500; iter++ {
		off := int64(rng.Intn(50000))
		size := int64(1 + rng.Intn(20000))
		ios := g.Map(off, size, true)
		var pieces []piece
		for p := off; p < off+size; p += pieces[len(pieces)-1].size {
			pieces = append(pieces, g.pieceAt(p, off+size))
		}
		rowsTouched := map[int64]bool{}
		for _, p := range pieces {
			rowsTouched[p.strip/int64(g.dataDisks())] = true
		}
		// Bound: per piece <= 2 data IOs; per row <= 2 parity IOs.
		maxIOs := 2*len(pieces) + 2*len(rowsTouched)
		if len(ios) > maxIOs {
			t.Fatalf("Map(%d,%d) produced %d IOs, bound %d", off, size, len(ios), maxIOs)
		}
		// Reads strictly precede writes.
		seenWrite := false
		for _, io := range ios {
			if io.Write {
				seenWrite = true
			} else if seenWrite {
				t.Fatalf("read after write in %+v", ios)
			}
		}
	}
}

// Property: within one phase, operations on the same disk never overlap
// byte ranges (overlap would mean double-counting service for one access).
func TestNoSameDiskOverlapWithinPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	geos := []Geometry{
		{RAID0, 4, 2048},
		{RAID5, 5, 2048},
		{RAID1, 4, 2048},
	}
	type span struct{ lo, hi int64 }
	check := func(g Geometry, ios []PhysIO) {
		byDisk := map[int][]span{}
		for _, io := range ios {
			s := span{io.Offset, io.Offset + io.Size}
			for _, prev := range byDisk[io.Disk] {
				if s.lo < prev.hi && prev.lo < s.hi {
					t.Fatalf("%v: overlapping ops on disk %d: %+v", g, io.Disk, ios)
				}
			}
			byDisk[io.Disk] = append(byDisk[io.Disk], s)
		}
	}
	for iter := 0; iter < 800; iter++ {
		g := geos[iter%len(geos)]
		off := int64(rng.Intn(100000))
		size := int64(1 + rng.Intn(30000))
		write := rng.Intn(2) == 0
		if g.Level == RAID5 && write {
			reads, writes := Phases(g.Map(off, size, true))
			check(g, reads)
			check(g, writes)
			continue
		}
		check(g, g.Map(off, size, write))
	}
}

// Property: coalescing preserves total bytes per (disk, kind).
func TestCoalescePreservesBytesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 300; iter++ {
		var raw []PhysIO
		off := map[int]int64{}
		for i := 0; i < 1+rng.Intn(20); i++ {
			d := rng.Intn(3)
			sz := int64(1 + rng.Intn(500))
			raw = append(raw, PhysIO{Disk: d, Offset: off[d], Size: sz, Kind: IOKind(rng.Intn(2))})
			if rng.Intn(2) == 0 {
				off[d] += sz // contiguous half the time
			} else {
				off[d] += sz + int64(1+rng.Intn(100))
			}
		}
		want := map[[2]int]int64{}
		for _, io := range raw {
			want[[2]int{io.Disk, int(io.Kind)}] += io.Size
		}
		got := map[[2]int]int64{}
		for _, io := range coalescePhys(append([]PhysIO(nil), raw...), 0) {
			got[[2]int{io.Disk, int(io.Kind)}] += io.Size
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("bytes changed for %v: %d -> %d", k, v, got[k])
			}
		}
	}
}

func BenchmarkRAID5MapSmallWrite(b *testing.B) {
	g := Geometry{RAID5, 5, 64 << 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Map(int64(i)*8192, 8192, true)
	}
}

func BenchmarkRAID5MapLargeSequential(b *testing.B) {
	g := Geometry{RAID5, 5, 64 << 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Map(int64(i%16)<<20, 1<<20, false)
	}
}
