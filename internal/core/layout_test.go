package core

import (
	"fmt"
	"math/rand"
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

// flatMap is the allocator's reference model: one flat bitmap over every
// slot, with the used count and next-fit hint, scanned one slot at a
// time. It shares no code or layout with Allocator.
type flatMap struct {
	words             []uint64
	total, used, hint int64
}

func newFlatMap(total int64) *flatMap {
	return &flatMap{words: make([]uint64, (total+63)/64), total: total}
}

func (m *flatMap) has(i int64) bool { return m.words[i/64]&(1<<uint(i%64)) != 0 }
func (m *flatMap) set(i int64)      { m.words[i/64] |= 1 << uint(i%64) }

// alloc is the slot-at-a-time next fit Alloc must match.
func (m *flatMap) alloc() (int64, bool) {
	if m.used >= m.total {
		return 0, false
	}
	for scanned := int64(0); scanned < m.total; scanned++ {
		if i := (m.hint + scanned) % m.total; !m.has(i) {
			m.set(i)
			m.used++
			m.hint = i + 1
			return i, true
		}
	}
	return 0, false
}

// allocRun is the one-start-at-a-time scan AllocRun must match.
func (m *flatMap) allocRun(n, align int64) (int64, bool) {
	if n <= 1 && align <= 1 {
		return m.alloc()
	}
	if align < 1 {
		align = 1
	}
	if m.total-m.used < n {
		return 0, false
	}
	steps := (m.total + align - 1) / align
	base := (m.hint / align) % steps
	for s := int64(0); s < steps; s++ {
		i := ((base + s) % steps) * align
		if i+n > m.total {
			continue
		}
		free := true
		for j := i; j < i+n && free; j++ {
			free = !m.has(j)
		}
		if !free {
			continue
		}
		for j := i; j < i+n; j++ {
			m.set(j)
		}
		m.used += n
		m.hint = i + n
		return i, true
	}
	return 0, false
}

func (m *flatMap) release(i int64) {
	m.words[i/64] &^= 1 << uint(i%64)
	m.used--
	m.hint = min(m.hint, i)
}

// allocator builds an Allocator holding the model's state through its
// public calls: each used run, lowest first, is claimed by AllocRun from
// a hint at its start, where every later slot is still free.
func (m *flatMap) allocator() *Allocator {
	a := NewAllocator(m.total)
	for i := int64(0); i < m.total; {
		if !m.has(i) {
			i++
			continue
		}
		e := i
		for e < m.total && m.has(e) {
			e++
		}
		a.hint = i
		if got, ok := a.AllocRun(e-i, 1); !ok || got != i {
			panic(fmt.Sprintf("building [%d,%d): AllocRun = %d, %v", i, e, got, ok))
		}
		i = e
	}
	a.hint = m.hint
	return a
}

// sameState reports the first difference between the allocator and the
// model in used count, hint or the state of any slot.
func sameState(a *Allocator, m *flatMap) error {
	if a.Used() != m.used || a.hint != m.hint {
		return fmt.Errorf("used %d hint %d; reference used %d hint %d", a.Used(), a.hint, m.used, m.hint)
	}
	for i := int64(0); i < m.total; i++ {
		if a.IsAllocated(i) != m.has(i) {
			return fmt.Errorf("slot %d allocated %v; reference %v", i, a.IsAllocated(i), m.has(i))
		}
	}
	return nil
}

// checkAllocRunMatches runs AllocRun on the allocator and the model and
// reports the first difference in the returned slot or the state left.
func checkAllocRunMatches(a *Allocator, m *flatMap, n, align int64) error {
	got, gotOK := a.AllocRun(n, align)
	want, wantOK := m.allocRun(n, align)
	if got != want || gotOK != wantOK {
		return fmt.Errorf("AllocRun = %d, %v; reference %d, %v", got, gotOK, want, wantOK)
	}
	return sameState(a, m)
}

// randomFlatMap fills a model of total slots from rng, in runs so both
// long used stretches and long free gaps occur, empties about one chunk
// in four whole, and sets a hint anywhere in [0, total], or just below a
// chunk edge so that runs straddle it.
func randomFlatMap(rng *rand.Rand, total int64) *flatMap {
	m := newFlatMap(total)
	density := rng.Float64()
	for i := int64(0); i < total; {
		run := min(int64(1+rng.Intn(150)), total-i)
		if rng.Float64() < density {
			for j := i; j < i+run; j++ {
				m.set(j)
			}
			m.used += run
		}
		i += run
	}
	for c := int64(0); c*chunkSlots < total; c++ {
		if rng.Intn(4) > 0 {
			continue
		}
		for j := c * chunkSlots; j < min((c+1)*chunkSlots, total); j++ {
			if m.has(j) {
				m.release(j)
			}
		}
	}
	m.hint = rng.Int63n(total + 1)
	if edges := total / chunkSlots; edges > 0 && rng.Intn(2) == 0 {
		m.hint = max(0, (1+rng.Int63n(edges))*chunkSlots-rng.Int63n(100))
	}
	return m
}

// TestAllocRunMatchesReference: over a seeded table of random bitmaps,
// hints, run lengths and alignments — runs that wrap past the end, runs
// with i+n > total, full and empty maps, maps of one chunk and of three
// or four chunks and a partial last one, runs that straddle a chunk edge
// and releases that empty a chunk — the allocator returns the model's
// slot and leaves its used count, hint and every slot's state.
func TestAllocRunMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	aligns := []int64{0, 1, 2, 3, 4, 8, 9, 16, 64, 100, 256}
	for trial := 0; trial < 4300; trial++ {
		total := int64(1 + rng.Intn(700))
		if trial >= 4000 {
			total = (3+rng.Int63n(2))*chunkSlots + 1 + rng.Int63n(chunkSlots-1)
		}
		m := randomFlatMap(rng, total)
		a := m.allocator()
		if err := sameState(a, m); err != nil {
			t.Fatalf("trial %d: built allocator: %v", trial, err)
		}
		for op := 0; op < 6; op++ {
			n := int64(rng.Intn(160))
			align := aligns[rng.Intn(len(aligns))]
			if op%2 == 1 {
				n, align = int64(rng.Intn(2)), int64(rng.Intn(2)) // Alloc
			}
			desc := fmt.Sprintf("trial %d op %d: total %d used %d hint %d n %d align %d",
				trial, op, total, m.used, m.hint, n, align)
			if err := checkAllocRunMatches(a, m, n, align); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			if m.used == 0 || rng.Intn(2) == 0 {
				continue
			}
			// Free one used slot so the hint is pulled back, or every
			// used slot of its chunk so the chunk is emptied.
			i := rng.Int63n(total)
			for !m.has(i) {
				i = rng.Int63n(total)
			}
			lo, hi := i, i+1
			if rng.Intn(4) == 0 {
				lo, hi = i/chunkSlots*chunkSlots, min(i/chunkSlots*chunkSlots+chunkSlots, total)
			}
			for j := lo; j < hi; j++ {
				if m.has(j) {
					a.Release(j)
					m.release(j)
				}
			}
			if err := sameState(a, m); err != nil {
				t.Fatalf("%s: after releasing [%d,%d): %v", desc, lo, hi, err)
			}
		}
	}
}

// TestAllocatorChunkEdges pins the chunk-edge cases the random table
// reaches only by chance: runs from an absent chunk into a used first
// slot, runs across a present chunk's last word, a run longer than a
// chunk, the wrap from a partial last chunk, and releases that empty a
// chunk. After every step the allocator matches the model.
func TestAllocatorChunkEdges(t *testing.T) {
	t.Parallel()
	const cs = chunkSlots
	total := int64(3*cs + 500)
	type step struct{ n, align, relLo, relHi int64 } // relHi > relLo: release used slots in [relLo, relHi)
	cases := []struct {
		name  string
		used  [][2]int64 // used runs [lo, hi)
		hint  int64
		steps []step
	}{
		{"absent chunk into used first slot", [][2]int64{{2 * cs, 2*cs + 1}}, 2*cs - 10,
			[]step{{n: 20, align: 1}, {n: 1}, {n: 30, align: 1}}},
		{"used first slot, aligned", [][2]int64{{cs, cs + 1}, {2 * cs, 2*cs + 3}}, cs - 8,
			[]step{{n: 16, align: 8}, {n: 16, align: 8}}},
		{"across a present chunk's last word", [][2]int64{{cs - 1, cs}}, cs - 30,
			[]step{{n: 40, align: 1}, {n: 64, align: 64}}},
		{"present chunk into used first slot", [][2]int64{{cs - 40, cs - 39}, {cs, cs + 1}}, cs - 30,
			[]step{{n: 40, align: 1}, {n: 1}, {n: 2, align: 1}}},
		{"run longer than a chunk", [][2]int64{{5, 6}, {2*cs + 5, 2*cs + 6}}, cs / 2,
			[]step{{n: cs + 2, align: 64}, {n: cs + 2, align: 64}, {n: cs + 2, align: 1}}},
		{"wrap from the partial last chunk", [][2]int64{{0, 3}, {3 * cs, 3*cs + 10}}, total - 1,
			[]step{{n: 1}, {n: 1}, {n: 2, align: 1}, {n: 600, align: 1}}},
		{"release empties a chunk", [][2]int64{{cs - 3, cs + 100}}, 0,
			[]step{{relLo: cs, relHi: 2 * cs}, {n: 1}, {relLo: 0, relHi: total}, {n: 50, align: 1}, {n: 1}}},
	}
	for _, tc := range cases {
		m := newFlatMap(total)
		for _, r := range tc.used {
			for i := r[0]; i < r[1]; i++ {
				m.set(i)
				m.used++
			}
		}
		m.hint = tc.hint
		a := m.allocator()
		for k, st := range tc.steps {
			var err error
			if st.relHi > st.relLo {
				for i := st.relLo; i < st.relHi; i++ {
					if m.has(i) {
						a.Release(i)
						m.release(i)
					}
				}
				err = sameState(a, m)
			} else {
				err = checkAllocRunMatches(a, m, st.n, st.align)
			}
			if err != nil {
				t.Fatalf("%s: step %d %+v: %v", tc.name, k, st, err)
			}
		}
	}
}

// FuzzAllocRun: any bitmap over up to eight chunks, with chunks left
// empty, any hint, n and align, and a release after, give the model's
// slot, used count, hint and slot states.
func FuzzAllocRun(f *testing.F) {
	f.Add([]byte{}, uint16(10), uint16(0), uint8(3), uint8(1), uint8(0), uint16(0))
	f.Add([]byte{0xff, 0x0f, 0, 0xf0}, uint16(32), uint16(31), uint8(8), uint8(8), uint8(0), uint16(5))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint16(130), uint16(130), uint8(64), uint8(64), uint8(0), uint16(129))
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f}, uint16(3*chunkSlots+900), uint16(chunkSlots-20), uint8(40), uint8(1), uint8(0b010), uint16(chunkSlots+3))
	f.Fuzz(func(t *testing.T, bitmap []byte, total, hint uint16, n, align, emptyChunks uint8, rel uint16) {
		m := newFlatMap(int64(total) + 1)
		for i := int64(0); i < m.total && len(bitmap) > 0; i++ {
			if emptyChunks&(1<<uint(i/chunkSlots%8)) == 0 && bitmap[(i/8)%int64(len(bitmap))]&(1<<uint(i%8)) != 0 {
				m.set(i)
				m.used++
			}
		}
		m.hint = int64(hint) % (m.total + 1)
		a := m.allocator()
		if err := checkAllocRunMatches(a, m, int64(n), int64(align)); err != nil {
			t.Fatal(err)
		}
		if i := int64(rel) % m.total; m.has(i) {
			a.Release(i)
			m.release(i)
			if err := sameState(a, m); err != nil {
				t.Fatalf("after releasing %d: %v", i, err)
			}
		}
	})
}

// TestAllocatorMaterialisesOnWrite: an allocator the size of a DS4100
// 8+P set in 1 MiB blocks holds no chunk until a slot is claimed, and
// one slot costs one chunk.
func TestAllocatorMaterialisesOnWrite(t *testing.T) {
	t.Parallel()
	chunks := func(a *Allocator) (n int) {
		for _, c := range a.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	a := NewAllocator(int64(8 * 250 * units.GB / units.MiB))
	if n := chunks(a); n != 0 {
		t.Fatalf("fresh allocator holds %d chunks", n)
	}
	if s, ok := a.Alloc(); !ok || s != 0 {
		t.Fatalf("Alloc = %d, %v", s, ok)
	}
	if n := chunks(a); n != 1 {
		t.Fatalf("after one Alloc: %d chunks", n)
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
