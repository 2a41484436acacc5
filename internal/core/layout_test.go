package core

import (
	"fmt"
	"math/rand"
	"slices"
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

// refAlloc is the slot-at-a-time first fit that Alloc replaces: the
// reference its word-at-a-time scan must match.
func refAlloc(a *Allocator) (int64, bool) {
	if a.used >= a.total {
		return 0, false
	}
	for scanned := int64(0); scanned < a.total; scanned++ {
		i := (a.hint + scanned) % a.total
		w, b := i/64, uint(i%64)
		if a.words[w]&(1<<b) == 0 {
			a.words[w] |= 1 << b
			a.used++
			a.hint = i + 1
			return i, true
		}
		if b == 0 && a.words[w] == ^uint64(0) {
			scanned += 63
		}
	}
	return 0, false
}

// refAllocRun is the one-start-at-a-time scan that AllocRun replaces.
func refAllocRun(a *Allocator, n, align int64) (int64, bool) {
	if n <= 1 && align <= 1 {
		return refAlloc(a)
	}
	if align < 1 {
		align = 1
	}
	if a.total-a.used < n {
		return 0, false
	}
	steps := (a.total + align - 1) / align
	base := (a.hint / align) % steps
	for s := int64(0); s < steps; s++ {
		i := ((base + s) % steps) * align
		if i+n > a.total {
			continue
		}
		free := true
		for j := int64(0); j < n; j++ {
			if a.IsAllocated(i + j) {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for j := int64(0); j < n; j++ {
			a.words[(i+j)/64] |= 1 << uint((i+j)%64)
		}
		a.used += n
		a.hint = i + n
		return i, true
	}
	return 0, false
}

// checkAllocRunMatches runs AllocRun and the reference on two copies of
// one allocator and reports the first difference in the returned slot,
// the bitmap, the used count or the hint.
func checkAllocRunMatches(a *Allocator, n, align int64) error {
	ref := &Allocator{words: slices.Clone(a.words), total: a.total, used: a.used, hint: a.hint}
	got, gotOK := a.AllocRun(n, align)
	want, wantOK := refAllocRun(ref, n, align)
	switch {
	case got != want || gotOK != wantOK:
		return fmt.Errorf("AllocRun = %d, %v; reference %d, %v", got, gotOK, want, wantOK)
	case !slices.Equal(a.words, ref.words):
		return fmt.Errorf("bitmap differs from the reference after slot %d", got)
	case a.used != ref.used || a.hint != ref.hint:
		return fmt.Errorf("used %d hint %d; reference used %d hint %d", a.used, a.hint, ref.used, ref.hint)
	}
	return nil
}

// randomAllocator fills a bitmap of total slots from rng, in runs so
// both long used stretches and long free gaps occur, and sets a hint
// anywhere in [0, total].
func randomAllocator(rng *rand.Rand, total int64) *Allocator {
	a := NewAllocator(total)
	density := rng.Float64()
	for i := int64(0); i < total; {
		run := min(int64(1+rng.Intn(150)), total-i)
		if rng.Float64() < density {
			for j := i; j < i+run; j++ {
				a.words[j/64] |= 1 << uint(j%64)
			}
			a.used += run
		}
		i += run
	}
	a.hint = rng.Int63n(total + 1)
	return a
}

// TestAllocRunMatchesReference: over a seeded table of random bitmaps,
// hints, run lengths and alignments — runs that wrap past the end, runs
// with i+n > total, full and empty maps — the word-at-a-time first fit
// returns the reference's slot and leaves its bitmap and hint.
func TestAllocRunMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	aligns := []int64{0, 1, 2, 3, 4, 8, 9, 16, 64, 100, 256}
	for trial := 0; trial < 4000; trial++ {
		total := int64(1 + rng.Intn(700))
		a := randomAllocator(rng, total)
		for op := 0; op < 6; op++ {
			n := int64(rng.Intn(160))
			align := aligns[rng.Intn(len(aligns))]
			if op%2 == 0 {
				n, align = int64(rng.Intn(2)), int64(rng.Intn(2)) // Alloc
			}
			desc := fmt.Sprintf("trial %d op %d: total %d used %d hint %d n %d align %d",
				trial, op, total, a.used, a.hint, n, align)
			if err := checkAllocRunMatches(a, n, align); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			if a.used > 0 && rng.Intn(2) == 0 {
				// Free one used slot so the hint is pulled back.
				for {
					if i := rng.Int63n(total); a.IsAllocated(i) {
						a.Release(i)
						break
					}
				}
			}
		}
	}
}

// FuzzAllocRun: any bitmap, hint, n and align give the reference's slot,
// bitmap, used count and hint.
func FuzzAllocRun(f *testing.F) {
	f.Add([]byte{}, uint16(10), uint16(0), uint8(3), uint8(1))
	f.Add([]byte{0xff, 0x0f, 0, 0xf0}, uint16(32), uint16(31), uint8(8), uint8(8))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint16(130), uint16(130), uint8(64), uint8(64))
	f.Fuzz(func(t *testing.T, bitmap []byte, total, hint uint16, n, align uint8) {
		a := NewAllocator(int64(total%2048) + 1)
		for i := int64(0); i < a.total && len(bitmap) > 0; i++ {
			if bitmap[(i/8)%int64(len(bitmap))]&(1<<uint(i%8)) != 0 {
				a.words[i/64] |= 1 << uint(i%64)
				a.used++
			}
		}
		a.hint = int64(hint) % (a.total + 1)
		if err := checkAllocRunMatches(a, int64(n), int64(align)); err != nil {
			t.Fatal(err)
		}
	})
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
