package raid

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"gfs/internal/disk"
	"gfs/internal/sim"
	"gfs/internal/units"
)

func newSet(s *sim.Sim, members int) *Set {
	disks := make([]*disk.Disk, members)
	for i := range disks {
		disks[i] = disk.New(s, "m", disk.SATA250())
	}
	return NewSet(s, "r5", disks, 256*units.KiB)
}

func TestGeometry(t *testing.T) {
	t.Parallel()
	s := sim.New()
	r := newSet(s, 9) // 8+P
	if r.DataDisks() != 8 {
		t.Errorf("DataDisks = %d", r.DataDisks())
	}
	if r.StripeWidth() != 8*256*units.KiB {
		t.Errorf("StripeWidth = %v", r.StripeWidth())
	}
	if r.Capacity() != 8*250*units.GB {
		t.Errorf("Capacity = %v", r.Capacity())
	}
}

func TestParityRotates(t *testing.T) {
	t.Parallel()
	s := sim.New()
	r := newSet(s, 9)
	seen := map[int]bool{}
	for st := int64(0); st < 9; st++ {
		pd := r.parityDisk(st)
		if pd < 0 || pd >= 9 {
			t.Fatalf("parity disk %d out of range", pd)
		}
		seen[pd] = true
	}
	if len(seen) != 9 {
		t.Errorf("parity visited %d of 9 members over 9 stripes", len(seen))
	}
}

func TestDataDiskSkipsParity(t *testing.T) {
	t.Parallel()
	s := sim.New()
	r := newSet(s, 9)
	for st := int64(0); st < 20; st++ {
		pd := r.parityDisk(st)
		used := map[int]bool{pd: true}
		for k := 0; k < r.DataDisks(); k++ {
			d := r.dataDisk(st, k)
			if d == pd {
				t.Fatalf("stripe %d segment %d mapped onto parity disk", st, k)
			}
			if used[d] {
				t.Fatalf("stripe %d: disk %d used twice", st, d)
			}
			used[d] = true
		}
	}
}

func TestFullStripeWriteNoRMW(t *testing.T) {
	t.Parallel()
	s := sim.New()
	r := newSet(s, 9)
	s.Go("w", func(p *sim.Proc) {
		r.Write(p, 0, r.StripeWidth())
	})
	s.Run()
	if r.RMWWrites() != 0 {
		t.Errorf("full-stripe write counted as RMW")
	}
}

func TestPartialWriteIsRMWAndSlower(t *testing.T) {
	t.Parallel()
	s1 := sim.New()
	r1 := newSet(s1, 9)
	s1.Go("w", func(p *sim.Proc) { r1.Write(p, 0, r1.StripeWidth()) })
	s1.Run()
	fullTime := s1.Now()

	s2 := sim.New()
	r2 := newSet(s2, 9)
	s2.Go("w", func(p *sim.Proc) { r2.Write(p, 0, 256*units.KiB) }) // one segment
	s2.Run()
	partialTime := s2.Now()

	if r2.RMWWrites() != 1 {
		t.Errorf("partial write not counted as RMW")
	}
	// A partial write moves 8x less data yet must not be 8x faster:
	// read-modify-write costs two serialized disk passes.
	if partialTime.Seconds() < fullTime.Seconds()*0.5 {
		t.Errorf("partial %v vs full %v: RMW penalty missing", partialTime, fullTime)
	}
}

func TestReadParallelism(t *testing.T) {
	t.Parallel()
	// Reading a full stripe should take about one segment's service time
	// (members work in parallel), not eight.
	s := sim.New()
	r := newSet(s, 9)
	s.Go("rd", func(p *sim.Proc) { r.Read(p, 0, r.StripeWidth()) })
	s.Run()
	one := disk.New(sim.New(), "x", disk.SATA250()).ServiceTime(disk.Read, units.GiB, 256*units.KiB)
	if s.Now() > 2*one {
		t.Errorf("full-stripe read %v, want ~%v (parallel members)", s.Now(), one)
	}
}

func TestDegradedReadTouchesSurvivors(t *testing.T) {
	t.Parallel()
	s := sim.New()
	r := newSet(s, 9)
	r.FailDisk(r.dataDisk(0, 0))
	s.Go("rd", func(p *sim.Proc) { r.Read(p, 0, 256*units.KiB) })
	s.Run()
	// Reconstruction reads from all 8 survivors.
	n := 0
	for _, d := range r.disks {
		if d.Ops() > 0 {
			n++
		}
	}
	if n != 8 {
		t.Errorf("degraded read touched %d disks, want 8", n)
	}
	if !r.Degraded() {
		t.Error("Degraded() = false")
	}
}

func TestRebuildRepairsSet(t *testing.T) {
	t.Parallel()
	s := sim.New()
	// Tiny capacity so the rebuild is fast.
	small := disk.Params{Capacity: 64 * units.MiB, SeekAvg: sim.Millisecond,
		RotationalHalf: sim.Millisecond, TransferRate: 60 * units.MBps}
	disks := make([]*disk.Disk, 5)
	for i := range disks {
		disks[i] = disk.New(s, "m", small)
	}
	r := NewSet(s, "r5", disks, 256*units.KiB)
	r.FailDisk(2)
	spare := disk.New(s, "spare", small)
	s.Go("rebuild", func(p *sim.Proc) { r.Rebuild(p, spare) })
	s.Run()
	if r.Degraded() {
		t.Error("set still degraded after rebuild")
	}
	if spare.BytesWritten() != small.Capacity {
		t.Errorf("spare received %v, want %v", spare.BytesWritten(), small.Capacity)
	}
	if r.disks[2] != spare {
		t.Error("spare not swapped into the set")
	}
}

func TestSegmentsCoverRequestExactly(t *testing.T) {
	t.Parallel()
	s := sim.New()
	r := newSet(s, 9)
	var total units.Bytes
	off, size := units.Bytes(1000), units.Bytes(5*units.MiB+12345)
	r.segments(off, size, func(stripe int64, k int, segOff, segLen units.Bytes) {
		if segLen <= 0 || segLen > 256*units.KiB {
			t.Fatalf("segment len %d", segLen)
		}
		total += segLen
	})
	if total != size {
		t.Errorf("segments covered %d bytes, want %d", total, size)
	}
}

// Property: XOR parity reconstructs any single missing block.
func TestPropertyParityReconstruct(t *testing.T) {
	t.Parallel()
	f := func(seed int64, nRaw, szRaw, missRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		sz := int(szRaw%64) + 1
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = make([]byte, sz)
			rng.Read(blocks[i])
		}
		parity := XORParity(blocks)
		miss := int(missRaw) % n
		var survivors [][]byte
		for i, b := range blocks {
			if i != miss {
				survivors = append(survivors, b)
			}
		}
		return bytes.Equal(Reconstruct(survivors, parity), blocks[miss])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: UpdateParity equals recomputing parity from scratch.
func TestPropertyUpdateParity(t *testing.T) {
	t.Parallel()
	f := func(seed int64, nRaw, szRaw, idxRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		sz := int(szRaw%64) + 1
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = make([]byte, sz)
			rng.Read(blocks[i])
		}
		oldP := XORParity(blocks)
		idx := int(idxRaw) % n
		newData := make([]byte, sz)
		rng.Read(newData)
		fast := UpdateParity(oldP, blocks[idx], newData)
		blocks[idx] = newData
		return bytes.Equal(fast, XORParity(blocks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: segment decomposition is a partition — contiguous, ordered,
// exactly covering the request, for random geometry.
func TestPropertySegmentsPartition(t *testing.T) {
	t.Parallel()
	f := func(offRaw, szRaw uint32, membersRaw uint8) bool {
		s := sim.New()
		members := int(membersRaw%7) + 3
		disks := make([]*disk.Disk, members)
		for i := range disks {
			disks[i] = disk.New(s, "m", disk.SATA250())
		}
		r := NewSet(s, "r", disks, 256*units.KiB)
		off := units.Bytes(offRaw % uint32(64*units.MiB))
		size := units.Bytes(szRaw%uint32(16*units.MiB)) + 1
		cur := off
		ok := true
		var lastStripe int64 = -1
		var lastK = -1
		r.segments(off, size, func(stripe int64, k int, segOff, segLen units.Bytes) {
			if segLen <= 0 {
				ok = false
			}
			if stripe < lastStripe || (stripe == lastStripe && k <= lastK) {
				ok = false // must advance strictly
			}
			lastStripe, lastK = stripe, k
			cur += segLen
		})
		return ok && cur == off+size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOpRecordsCarvedInBatches takes 10 op records from a fresh set at
// once: they come in batches of opBatch, each record owns its members
// and work-list headers (capped, so no record's slices reach into a
// neighbour's), records still in the free list have no callbacks bound
// yet, and a returned record is reused before any new batch.
func TestOpRecordsCarvedInBatches(t *testing.T) {
	t.Parallel()
	r := newSet(sim.New(), 9)
	seen := map[*op]bool{}
	var ops []*op
	for k := 0; k < 10; k++ {
		o := r.newOp()
		if seen[o] {
			t.Fatalf("record %d handed out twice", k)
		}
		seen[o] = true
		ops = append(ops, o)
		if len(o.work) != 9 || cap(o.work) != 9 || len(o.members) != 9 || cap(o.members) != 9 {
			t.Fatalf("record %d: work %d/%d, members %d/%d, want 9/9", k,
				len(o.work), cap(o.work), len(o.members), cap(o.members))
		}
		for i := range o.members {
			if m := &o.members[i]; m.o != o || m.i != i || m.startFn == nil || m.cmd.Done == nil {
				t.Fatalf("record %d member %d not bound to its record", k, i)
			}
		}
	}
	if want := (10+opBatch-1)/opBatch*opBatch - 10; len(r.free) != want {
		t.Fatalf("free list holds %d records, want %d", len(r.free), want)
	}
	for _, o := range r.free {
		if o.members[0].startFn != nil {
			t.Fatal("a record never handed out has callbacks bound")
		}
	}
	r.free = append(r.free, ops[3])
	if o := r.newOp(); o != ops[3] {
		t.Fatal("returned record not reused first")
	}
}
