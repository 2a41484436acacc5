package core

import (
	"fmt"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

func BenchmarkAllocatorAllocRelease(b *testing.B) {
	a := NewAllocator(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, ok := a.Alloc()
		if !ok {
			b.Fatal("full")
		}
		a.Release(s)
	}
}

// BenchmarkNewAllocator builds the allocation map of one DS4100 8+P set
// in 1 MiB blocks (~1.9M slots). A flat bitmap would cost ~238 KB/op;
// the chunked map costs its chunk pointers until the first write.
func BenchmarkNewAllocator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if a := NewAllocator(int64(8 * 250 * units.GB / units.MiB)); a.Free() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkStriperMapping(b *testing.B) {
	s := Striper{NSDs: 224, First: 17}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.NSDFor(int64(i))
	}
	_ = sink
}

func BenchmarkSpansDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = spans(units.MiB, 12345, 16*units.MiB)
	}
}

func BenchmarkTokenTableAcquireCycle(b *testing.B) {
	tt := newTokenTable()
	for i := 0; i < b.N; i++ {
		start := units.Bytes(i%1024) * units.MiB
		end := start + 4*units.MiB
		if !tt.holderCovers(1, "c", start, end, TokExclusive) {
			for h, sp := range tt.conflicts(1, start, end, TokExclusive, "c") {
				tt.carve(1, h, sp[0], sp[1])
			}
			tt.insert(1, "c", start, end, TokExclusive)
		}
	}
}

func BenchmarkFSCK(b *testing.B) {
	// A filesystem with a few hundred files and a few thousand blocks.
	r := newRig(b, 4, 1, 256*units.KiB)
	r.run(b, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		for i := 0; i < 200; i++ {
			f, err := m.Create(p, fileName(i), DefaultPerm)
			if err != nil {
				return err
			}
			if err := f.WriteAt(p, 0, units.Bytes(i%8+1)*256*units.KiB); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
		}
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := r.fs.Check(); !rep.OK() {
			b.Fatal(rep.Problems)
		}
	}
}

func fileName(i int) string {
	return "/f" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i/676))
}

// BenchmarkWriteBehind seeds files through one mount the way RunANL does:
// 1 MiB blocks, the default 512-page pool, 8 MiB WriteAts. Once the pool
// is full every write trips write-behind with 512 cached pages beside the
// dirty ones. One iteration writes and closes one 64 MiB file, and
// removes the file written 16 iterations earlier so the disks never fill.
func BenchmarkWriteBehind(b *testing.B) {
	r := newRig(b, 4, 1, units.MiB)
	r.run(b, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := m.Create(p, fmt.Sprintf("/seed%d", i), DefaultPerm)
			if err != nil {
				return err
			}
			for off := units.Bytes(0); off < 64*units.MiB; off += 8 * units.MiB {
				if err := f.WriteAt(p, off, 8*units.MiB); err != nil {
					return err
				}
			}
			if err := f.Close(p); err != nil {
				return err
			}
			if i >= 16 {
				if err := m.Remove(p, fmt.Sprintf("/seed%d", i-16)); err != nil {
					return err
				}
			}
		}
		b.StopTimer()
		return nil
	})
}

// BenchmarkSharedFileLayout has 16 mounts open one 4,096-block shared
// file and fetch its layout at strided offsets, rank i up to the end of
// its own region, as MPI-IO ranks do before a strided read. One op is
// all 16 opens and fetches. Replies are views of the manager's one block
// list, so B/op is the RPCs' own cost (~12 KB); copied replies read
// ~610 KB/op.
func BenchmarkSharedFileLayout(b *testing.B) {
	const ranks, blocks = 16, 4096
	r := newRig(b, 4, ranks, 64*units.KiB)
	r.run(b, func(p *sim.Proc) error {
		mounts := make([]*Mount, ranks)
		for i, c := range r.clients {
			m, err := c.MountLocal(p, r.fs)
			if err != nil {
				return err
			}
			mounts[i] = m
		}
		f, err := mounts[0].Create(p, "/shared", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.ensureAlloc(p, blocks-1); err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, m := range mounts {
				g, err := m.Open(p, "/shared")
				if err != nil {
					return err
				}
				if err := g.ensureLayout(p, int64(k+1)*blocks/ranks-1); err != nil {
					return err
				}
			}
		}
		b.StopTimer()
		return nil
	})
}
