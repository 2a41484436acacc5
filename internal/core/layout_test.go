package core

import (
	"testing"
	"testing/quick"

	"gfs/internal/units"
)

func TestAllocatorBasic(t *testing.T) {
	t.Parallel()
	a := NewAllocator(10)
	if a.Total() != 10 || a.Used() != 0 || a.Free() != 10 {
		t.Fatalf("fresh allocator: %d/%d", a.Used(), a.Total())
	}
	seen := map[int64]bool{}
	for i := 0; i < 10; i++ {
		s, ok := a.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[s] {
			t.Fatalf("slot %d allocated twice", s)
		}
		seen[s] = true
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("alloc on full allocator succeeded")
	}
	a.Release(3)
	s, ok := a.Alloc()
	if !ok || s != 3 {
		t.Fatalf("after release, alloc = %d, %v; want 3", s, ok)
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	t.Parallel()
	a := NewAllocator(4)
	s, _ := a.Alloc()
	a.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Release(s)
}

func TestAllocatorLargeWordSkip(t *testing.T) {
	t.Parallel()
	a := NewAllocator(1000)
	for i := 0; i < 1000; i++ {
		if _, ok := a.Alloc(); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if a.Free() != 0 {
		t.Fatalf("free = %d", a.Free())
	}
}

// Property: alloc/release sequences keep used-count and bitmap consistent,
// and never hand out an allocated slot.
func TestPropertyAllocatorConsistency(t *testing.T) {
	t.Parallel()
	f := func(ops []bool, sizeRaw uint8) bool {
		size := int64(sizeRaw%64) + 1
		a := NewAllocator(size)
		var held []int64
		for _, alloc := range ops {
			if alloc || len(held) == 0 {
				s, ok := a.Alloc()
				if !ok {
					if int64(len(held)) != size {
						return false
					}
					continue
				}
				for _, h := range held {
					if h == s {
						return false
					}
				}
				if !a.IsAllocated(s) {
					return false
				}
				held = append(held, s)
			} else {
				s := held[len(held)-1]
				held = held[:len(held)-1]
				a.Release(s)
				if a.IsAllocated(s) {
					return false
				}
			}
		}
		return a.Used() == int64(len(held))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStriperRoundRobin(t *testing.T) {
	t.Parallel()
	s := Striper{NSDs: 4, First: 2}
	want := []int{2, 3, 0, 1, 2, 3}
	for b, w := range want {
		if got := s.NSDFor(int64(b)); got != w {
			t.Errorf("NSDFor(%d) = %d, want %d", b, got, w)
		}
	}
}

func TestSpansSingleBlock(t *testing.T) {
	t.Parallel()
	got := spans(units.MiB, 100, 200)
	if len(got) != 1 || got[0].Index != 0 || got[0].Offset != 100 || got[0].Len != 200 {
		t.Fatalf("spans = %+v", got)
	}
}

func TestSpansCrossBlocks(t *testing.T) {
	t.Parallel()
	bs := units.Bytes(1024)
	got := spans(bs, 1000, 2100) // [1000, 3100): blocks 0,1,2,3
	if len(got) != 4 {
		t.Fatalf("spans = %+v", got)
	}
	if got[0].Len != 24 || got[1].Len != 1024 || got[2].Len != 1024 || got[3].Len != 28 {
		t.Fatalf("span lens wrong: %+v", got)
	}
}

// Property: spans partition the request exactly and block-align interior
// boundaries.
func TestPropertySpansPartition(t *testing.T) {
	t.Parallel()
	f := func(offRaw, sizeRaw uint32) bool {
		bs := units.Bytes(256 * units.KiB)
		off := units.Bytes(offRaw % (1 << 26))
		size := units.Bytes(sizeRaw%(1<<24)) + 1
		cur := off
		for i, sp := range spans(bs, off, size) {
			if sp.Len <= 0 || sp.Len > bs {
				return false
			}
			start := units.Bytes(sp.Index)*bs + sp.Offset
			if start != cur {
				return false
			}
			if i > 0 && sp.Offset != 0 {
				return false // only the first span may start mid-block
			}
			cur += sp.Len
		}
		return cur == off+size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
