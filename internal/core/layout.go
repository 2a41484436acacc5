// Package core implements the paper's primary contribution: a GPFS-style
// wide-area parallel file system. Files are striped in fixed-size blocks
// across Network Shared Disks (NSDs); NSD servers perform disk I/O on
// behalf of clients that may sit across a machine room or across the
// country; a token manager coordinates byte-range access so clients can
// cache aggressively; and whole file systems can be exported to other
// clusters over the WAN with RSA cluster authentication (multi-cluster).
//
// The package is built on the simulation substrates (internal/sim,
// internal/netsim, internal/disk, internal/raid, internal/san) but its
// metadata, allocation, striping, token and permission logic is real and
// byte-exact — small files written through a client can be read back
// identically through another client at another site.
package core

import (
	"fmt"
	"math/bits"

	"gfs/internal/units"
)

// BlockRef names one file-system block: which NSD and which block slot on
// that NSD.
type BlockRef struct {
	NSD   int
	Block int64
}

// Valid reports whether the ref points at a real slot.
func (b BlockRef) Valid() bool { return b.NSD >= 0 && b.Block >= 0 }

// NilBlock is the zero/unallocated block reference.
var NilBlock = BlockRef{NSD: -1, Block: -1}

// Allocator hands out block slots on one NSD using a bitmap with a
// next-fit hint, the moral equivalent of a GPFS allocation-map segment.
// The bitmap has two levels: fixed-size chunks of words, each allocated
// when its first slot is claimed. An absent chunk reads as all-free, so
// a fresh allocator costs one pointer per chunk however large its NSD,
// and a run pays only for the regions it writes.
type Allocator struct {
	chunks []*[chunkWords]uint64 // nil: every slot in the chunk is free
	total  int64
	used   int64
	hint   int64
}

// A chunk is 128 words: 8,192 slots in 1 KiB.
const (
	chunkWords = 128
	chunkSlots = chunkWords * 64
)

// NewAllocator returns an allocator with the given number of slots.
func NewAllocator(blocks int64) *Allocator {
	if blocks <= 0 {
		panic(fmt.Sprintf("core: allocator size %d", blocks))
	}
	return &Allocator{chunks: make([]*[chunkWords]uint64, (blocks+chunkSlots-1)/chunkSlots), total: blocks}
}

// Total returns the slot count.
func (a *Allocator) Total() int64 { return a.total }

// Used returns allocated slots.
func (a *Allocator) Used() int64 { return a.used }

// Free returns unallocated slots.
func (a *Allocator) Free() int64 { return a.total - a.used }

// word returns bitmap word w for writing, allocating its chunk.
func (a *Allocator) word(w int64) *uint64 {
	c := a.chunks[w/chunkWords]
	if c == nil {
		c = new([chunkWords]uint64)
		a.chunks[w/chunkWords] = c
	}
	return &c[w&(chunkWords-1)]
}

// Alloc claims the next free slot, scanning from the hint. It returns
// false when the NSD is full.
func (a *Allocator) Alloc() (int64, bool) {
	if a.used >= a.total {
		return 0, false
	}
	i := a.nextFree(a.hint % a.total)
	if i == a.total {
		i = a.nextFree(0) // wrap: a free slot exists below the hint
	}
	*a.word(i / 64) |= 1 << uint(i%64)
	a.used++
	a.hint = i + 1
	return i, true
}

// AllocRun claims n consecutive free slots whose start is a multiple of
// align (align <= 1 means unaligned) and returns the first slot. It scans
// from the hint like Alloc and fails when no such run exists — callers
// fall back to single-slot allocation. Contiguous, aligned runs are what
// let a client flush a whole RAID stripe as one store write.
func (a *Allocator) AllocRun(n, align int64) (int64, bool) {
	if n <= 1 && align <= 1 {
		return a.Alloc()
	}
	if align < 1 {
		align = 1
	}
	if a.total-a.used < n {
		return 0, false
	}
	steps := (a.total + align - 1) / align // candidate aligned starts
	base := (a.hint / align) % steps       // next-fit: resume near the hint
	i, ok := a.firstRun(base*align, steps*align, n, align)
	if !ok {
		i, ok = a.firstRun(0, base*align, n, align)
	}
	if !ok {
		return 0, false
	}
	for j := i; j < i+n; {
		b := uint(j % 64)
		bitsHere := min(64-int64(b), i+n-j)
		*a.word(j / 64) |= (^uint64(0) >> uint(64-bitsHere)) << b
		j += bitsHere
	}
	a.used += n
	a.hint = i + n
	return i, true
}

// firstRun returns the first start in [lo, hi), a multiple of align from
// lo, of n free slots. A candidate that hits a used slot fails, and so
// does every later start before the next free slot, so the scan jumps
// there (rounded up to align) instead of stepping one start at a time.
func (a *Allocator) firstRun(lo, hi, n, align int64) (int64, bool) {
	for i := lo; i < hi && i+n <= a.total; {
		used := a.nextUsed(i, i+n)
		if used == i+n {
			return i, true
		}
		free := a.nextFree(used + 1)
		i = (free + align - 1) / align * align
	}
	return 0, false
}

// nextFree returns the first free slot at or after i, or total if none.
func (a *Allocator) nextFree(i int64) int64 {
	for i < a.total {
		w := i / 64
		c := a.chunks[w/chunkWords]
		if c == nil {
			return i
		}
		if x := ^c[w&(chunkWords-1)] >> uint(i%64); x != 0 {
			return min(i+int64(bits.TrailingZeros64(x)), a.total)
		}
		i = (w + 1) * 64
	}
	return a.total
}

// nextUsed returns the first allocated slot in [i, end), or end if none.
func (a *Allocator) nextUsed(i, end int64) int64 {
	for i < end {
		w := i / 64
		c := a.chunks[w/chunkWords]
		if c == nil {
			i = (w/chunkWords + 1) * chunkSlots
			continue
		}
		if x := c[w&(chunkWords-1)] >> uint(i%64); x != 0 {
			return min(i+int64(bits.TrailingZeros64(x)), end)
		}
		i = (w + 1) * 64
	}
	return end
}

// IsAllocated reports the state of a slot.
func (a *Allocator) IsAllocated(i int64) bool {
	if i < 0 || i >= a.total {
		return false
	}
	c := a.chunks[i/chunkSlots]
	return c != nil && c[i/64&(chunkWords-1)]&(1<<uint(i%64)) != 0
}

// Release frees a slot; releasing a free slot panics (double free is a
// metadata corruption, not a recoverable condition).
func (a *Allocator) Release(i int64) {
	if i < 0 || i >= a.total {
		panic(fmt.Sprintf("core: release of slot %d outside [0,%d)", i, a.total))
	}
	c, bit := a.chunks[i/chunkSlots], uint64(1)<<uint(i%64)
	if c == nil || c[i/64&(chunkWords-1)]&bit == 0 {
		panic(fmt.Sprintf("core: double free of slot %d", i))
	}
	c[i/64&(chunkWords-1)] &^= bit
	a.used--
	if i < a.hint {
		a.hint = i
	}
}

// Striper maps file block indexes onto NSDs round-robin, starting at an
// inode-specific offset so load spreads when many small files coexist.
// Group > 1 places that many consecutive file blocks on the same NSD
// before advancing — stripe-group striping, so a gathered flush of
// consecutive blocks is one contiguous store write instead of a scatter
// across every NSD.
type Striper struct {
	NSDs  int
	First int
	Group int // consecutive blocks per NSD; <= 1 is per-block round-robin
}

// NSDFor returns the NSD serving file block index b.
func (s Striper) NSDFor(b int64) int {
	if s.NSDs <= 0 {
		panic("core: striper with no NSDs")
	}
	g := int64(s.Group)
	if g < 1 {
		g = 1
	}
	return int((int64(s.First) + b/g) % int64(s.NSDs))
}

// blockSpan describes the file blocks overlapped by a byte range.
type blockSpan struct {
	Index  int64       // file block index
	Offset units.Bytes // offset within the block
	Len    units.Bytes // bytes of the request inside this block
}

// spans decomposes [off, off+size) into per-block pieces.
func spans(blockSize, off, size units.Bytes) []blockSpan {
	if blockSize <= 0 {
		panic("core: zero block size")
	}
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("core: negative range off=%d size=%d", off, size))
	}
	var out []blockSpan
	for cur := off; cur < off+size; {
		idx := int64(cur / blockSize)
		in := cur % blockSize
		n := blockSize - in
		if rem := off + size - cur; n > rem {
			n = rem
		}
		out = append(out, blockSpan{Index: idx, Offset: in, Len: n})
		cur += n
	}
	return out
}
