package core

import (
	"gfs/internal/sim"
)

// Arena free-list caps. Blocks are page-sized (one filesystem block each),
// so 512 of them bounds the arena at 512 x BlockSize bytes per mount —
// small next to the page pool itself, whose pages the arena recycles.
// Scratch buffers are gather/flush staging (up to a whole stripe run), so
// far fewer are retained.
const (
	maxArenaBlocks  = 512
	maxArenaScratch = 32
)

// bufArena recycles the page-data and flush-scratch buffers of one mount.
// Every page fault used to pay make([]byte, BlockSize); at scale those
// allocations (and the GC work to reclaim them) dominate the byte-exact
// paths. The arena keeps freed buffers on per-kind free lists:
//
//   - blocks: fixed BlockSize buffers backing page.data. getBlock returns
//     a zeroed buffer — partially-written pages, mergeFetched's dirty-
//     interval merge, and readAt's zero-fill of absent data all rely on
//     fresh-zero semantics.
//   - scratch: variable-length gather/flush staging. getScratch does NOT
//     zero (callers fully overwrite) and returns the first fit scanning
//     newest-first, so a steady flush pipeline reuses one hot buffer.
//
// Refill misses are real heap allocations but belong to pool warm-up, not
// the steady state; they are charged to the engine probe's external-alloc
// ledger so allocs/event bounds keep measuring the run (see
// EngineProbe.NoteExternalAllocs).
//
// The arena is single-threaded like everything else under the simulator:
// no locking.
type bufArena struct {
	s         *sim.Sim
	blockSize int

	blocks  [][]byte
	scratch [][]byte

	hits     uint64 // gets served from a free list
	misses   uint64 // gets that had to allocate
	recycled uint64 // buffers returned to a free list
}

func newBufArena(s *sim.Sim, blockSize int) *bufArena {
	return &bufArena{s: s, blockSize: blockSize}
}

// noteAlloc charges one refill allocation to the engine probe (if any).
func (a *bufArena) noteAlloc() {
	if a.s != nil {
		a.s.EngineProbe().NoteExternalAllocs(1)
	}
}

// getBlock returns a zeroed BlockSize buffer for page.data.
func (a *bufArena) getBlock() []byte {
	if n := len(a.blocks); n > 0 {
		b := a.blocks[n-1]
		a.blocks[n-1] = nil
		a.blocks = a.blocks[:n-1]
		clear(b)
		a.hits++
		return b
	}
	a.misses++
	a.noteAlloc()
	return make([]byte, a.blockSize)
}

// putBlock recycles a page-data buffer. Foreign-sized buffers are dropped:
// only buffers getBlock handed out come back.
func (a *bufArena) putBlock(b []byte) {
	if cap(b) < a.blockSize || len(a.blocks) >= maxArenaBlocks {
		return
	}
	a.recycled++
	a.blocks = append(a.blocks, b[:a.blockSize])
}

// getScratch returns an n-byte staging buffer with arbitrary contents —
// callers overwrite every byte before use.
func (a *bufArena) getScratch(n int) []byte {
	for i := len(a.scratch) - 1; i >= 0; i-- {
		if cap(a.scratch[i]) >= n {
			last := len(a.scratch) - 1
			b := a.scratch[i]
			a.scratch[i] = a.scratch[last]
			a.scratch[last] = nil
			a.scratch = a.scratch[:last]
			a.hits++
			return b[:n]
		}
	}
	a.misses++
	a.noteAlloc()
	return make([]byte, n)
}

// putScratch recycles a staging buffer once its flush RPC has completed
// (the NSD server copies payload data on receipt, so the buffer is dead
// the moment the response lands).
func (a *bufArena) putScratch(b []byte) {
	if cap(b) == 0 || len(a.scratch) >= maxArenaScratch {
		return
	}
	a.recycled++
	a.scratch = append(a.scratch, b[:0])
}
