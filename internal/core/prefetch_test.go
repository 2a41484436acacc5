package core

import (
	"bytes"
	"errors"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// Prefetch accounting must stay honest: speculative fetches are not
// demand misses, claimed prefetches count as hits of their own kind, and
// speculation dropped unused is reported as such.
func TestPrefetchAccounting(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 0, 256*units.KiB)
	cfg := DefaultClientConfig()
	cfg.ReadAhead = 8
	cl := r.addClient("pf", cfg, Identity{DN: "/CN=pf"})
	r.run(t, func(p *sim.Proc) error {
		m, err := cl.MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/seq", DefaultPerm)
		if err != nil {
			return err
		}
		const blocks = 64
		bs := m.BlockSize()
		if err := f.WriteAt(p, 0, blocks*bs); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		m.DropCaches()
		f.Seek(0)
		// Sequential sweep: everything past the ramp-up should arrive
		// via prefetch, not demand misses.
		for i := int64(0); i < blocks; i++ {
			if err := f.ReadAt(p, units.Bytes(i)*bs, bs); err != nil {
				return err
			}
		}
		st := m.Stats()
		if st.PrefetchIssued == 0 {
			t.Error("sequential sweep issued no prefetches")
		}
		if st.PrefetchHits == 0 {
			t.Error("no prefetch hits on a pure sequential stream")
		}
		if st.PrefetchHits > st.PrefetchIssued {
			t.Errorf("hits %d > issued %d", st.PrefetchHits, st.PrefetchIssued)
		}
		// Demand misses must be few: only the stream head before the
		// prefetcher got going.
		if st.CacheMisses > 4 {
			t.Errorf("demand misses = %d, want <= 4 of %d blocks (prefetch should cover the rest)",
				st.CacheMisses, blocks)
		}
		// The classic dishonest accounting would report every prefetched
		// block as a miss at issue and a hit at access.
		if st.CacheMisses+st.PrefetchIssued < uint64(blocks) {
			t.Errorf("misses %d + prefetches %d < %d blocks fetched", st.CacheMisses, st.PrefetchIssued, blocks)
		}

		// Unused speculation: read the head of a second file, abandon the
		// stream, and drop caches — the tail prefetches die unclaimed.
		g, err := m.Create(p, "/aband", DefaultPerm)
		if err != nil {
			return err
		}
		if err := g.WriteAt(p, 0, 32*bs); err != nil {
			return err
		}
		if err := g.Sync(p); err != nil {
			return err
		}
		m.DropCaches()
		g.Seek(0)
		for i := int64(0); i < 4; i++ {
			if err := g.ReadAt(p, units.Bytes(i)*bs, bs); err != nil {
				return err
			}
		}
		p.Sleep(sim.Second) // let in-flight prefetches land
		m.DropCaches()
		if st := m.Stats(); st.PrefetchUnused == 0 {
			t.Error("abandoned stream + drop caches reported no unused prefetches")
		}
		return nil
	})
}

// The stream detector ramps depth up only while reads stay sequential,
// and restarts after a seek.
func TestPrefetchStreamDetector(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 0, 256*units.KiB)
	cfg := DefaultClientConfig()
	cfg.ReadAhead = 16
	cl := r.addClient("sd", cfg, Identity{DN: "/CN=sd"})
	r.run(t, func(p *sim.Proc) error {
		m, err := cl.MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/f", DefaultPerm)
		if err != nil {
			return err
		}
		bs := m.BlockSize()
		if err := f.WriteAt(p, 0, 128*bs); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		m.DropCaches()

		// Random-ish (non-sequential) accesses: no prefetch at all.
		for _, idx := range []int64{40, 7, 99, 23} {
			if err := f.ReadAt(p, units.Bytes(idx)*bs, bs); err != nil {
				return err
			}
		}
		if st := m.Stats(); st.PrefetchIssued != 0 {
			t.Errorf("non-sequential reads issued %d prefetches", st.PrefetchIssued)
		}

		// A sequential run ramps: first sequential read prefetches 2,
		// never the full 16 straight away.
		f.Seek(0)
		if err := f.ReadAt(p, 0, bs); err != nil {
			return err
		}
		st := m.Stats()
		if st.PrefetchIssued == 0 || st.PrefetchIssued > 4 {
			t.Errorf("first sequential read prefetched %d blocks; want a small ramp start", st.PrefetchIssued)
		}
		for i := int64(1); i < 32; i++ {
			if err := f.ReadAt(p, units.Bytes(i)*bs, bs); err != nil {
				return err
			}
		}
		if f.raDepth != 16 {
			t.Errorf("ramp stopped at depth %d, want cap 16", f.raDepth)
		}
		// Break the stream: the ramp restarts.
		if err := f.ReadAt(p, 100*bs, bs); err != nil {
			return err
		}
		if f.raDepth != 0 {
			t.Errorf("depth after stream break = %d, want 0", f.raDepth)
		}
		return nil
	})
}

// Truncating a file with dirty and in-flight pages must not let a stale
// write-back land on freed (and possibly reallocated) blocks, and a
// subsequent extension must read back exactly.
func TestTruncateDiscardsDirtyTail(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 64*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		bs := m.BlockSize()
		f, err := m.Create(p, "/t", DefaultPerm)
		if err != nil {
			return err
		}
		// Dirty 8 blocks, then truncate to 2.5 blocks before any sync:
		// the tail dirty pages must be discarded, not flushed to freed
		// blocks.
		data := seqBytes(8 * int(bs))
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		keep := bs*2 + bs/2
		if err := f.Truncate(p, keep); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		// Another file immediately reuses the freed blocks; its content
		// must survive anything the first file does afterwards.
		g, err := m.Create(p, "/u", DefaultPerm)
		if err != nil {
			return err
		}
		other := seqBytes(6 * int(bs))
		for i := range other {
			other[i] ^= 0xA5
		}
		if err := g.WriteBytesAt(p, 0, other); err != nil {
			return err
		}
		if err := g.Sync(p); err != nil {
			return err
		}
		// Extend the truncated file again and verify both files.
		ext := bytes.Repeat([]byte{0x3C}, 2*int(bs))
		if err := f.WriteBytesAt(p, keep, ext); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		m.DropCaches()
		got, err := f.ReadBytesAt(p, 0, keep+units.Bytes(len(ext)))
		if err != nil {
			return err
		}
		want := append(append([]byte{}, data[:keep]...), ext...)
		if !bytes.Equal(got, want) {
			t.Error("truncated+extended file corrupt")
		}
		gotO, err := g.ReadBytesAt(p, 0, units.Bytes(len(other)))
		if err != nil {
			return err
		}
		if !bytes.Equal(gotO, other) {
			t.Error("bystander file corrupted by stale write-back after truncate")
		}
		if st := m.Stats(); st.DirtyPages != 0 {
			t.Errorf("dirty pages = %d after syncs, want 0 (leaked dirty accounting)", st.DirtyPages)
		}
		return nil
	})
	t.Run("gather", func(t *testing.T) { discardRunsInFlight(t, false) })
}

// Removing a file with cached state discards its pages; blocks freed by
// the remove can be reused by another file without corruption.
func TestRemoveDiscardsPages(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 64*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		bs := m.BlockSize()
		f, err := m.Create(p, "/victim", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, seqBytes(4*int(bs))); err != nil {
			return err
		}
		// Remove with dirty pages outstanding (no sync).
		if err := m.Remove(p, "/victim"); err != nil {
			return err
		}
		g, err := m.Create(p, "/heir", DefaultPerm)
		if err != nil {
			return err
		}
		data := seqBytes(4 * int(bs))
		if err := g.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := g.Sync(p); err != nil {
			return err
		}
		m.DropCaches()
		got, err := g.ReadBytesAt(p, 0, units.Bytes(len(data)))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("heir file corrupt after removing dirty predecessor")
		}
		if st := m.Stats(); st.DirtyPages != 0 {
			t.Errorf("dirty pages = %d, want 0", st.DirtyPages)
		}
		return nil
	})
	t.Run("gather", func(t *testing.T) { discardRunsInFlight(t, true) })
}

// discardRunsInFlight truncates (or removes) a file while a gathered
// multi-page flush and a batched prefetch of it are in flight, with a
// reader waiting on a page of the prefetch. Truncate discards before its
// barrier flush, so both runs land stale; remove waits out the flush
// first, so only the prefetch does. A stale run must drop its pages
// without resurrecting any, wake its waiters, leave no bytes in the
// slots the discard freed, and leave the surviving bytes exact and the
// filesystem clean.
func discardRunsInFlight(t *testing.T, remove bool) {
	t.Parallel()
	r := newRig(t, 1, 0, 64*units.KiB) // one NSD: file blocks sit on consecutive slots
	r.fs.EnableGather()
	cl := r.addClient("g", DefaultClientConfig(), Identity{DN: "/CN=g"})
	r.run(t, func(p *sim.Proc) error {
		m, err := cl.MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		bs := m.BlockSize()
		f, err := m.Create(p, "/t", DefaultPerm)
		if err != nil {
			return err
		}
		data := seqBytes(24 * int(bs))
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		m.DropCaches()
		if err := f.WriteBytesAt(p, 4*bs, bytes.Repeat([]byte{0x5A}, 4*int(bs))); err != nil {
			return err
		}
		// Hold every token truncate asks for, so nothing blocks between
		// issuing the runs below and discarding their pages.
		if err := m.acquireToken(p, f.ino, 0, 1<<60, TokExclusive); err != nil {
			return err
		}
		before := m.Stats()
		m.flushDirty(m.pool.dirtyOf(f.ino), true) // blocks 4..7, one run
		m.prefetchBatch(f, 8, 23, true)           // blocks 8..23, one run
		st := m.Stats()
		if st.GatheredFlushes == before.GatheredFlushes || st.BatchedFetches == before.BatchedFetches {
			t.Fatalf("runs not gathered: flushes %d -> %d, batched fetches %d -> %d",
				before.GatheredFlushes, st.GatheredFlushes, before.BatchedFetches, st.BatchedFetches)
		}
		var pages []*page
		for idx := int64(4); idx < 24; idx++ {
			pages = append(pages, m.pool.get(pageKey{ino: f.ino, idx: idx}))
		}
		flushed, fetched := pages[0], pages[4]
		if !flushed.flushing || !fetched.fetching {
			t.Fatal("runs not in flight before the discard")
		}
		woken := false
		r.s.Go("waiter", func(wp *sim.Proc) {
			m.waitPage(wp, pages[8])
			woken = true
		})
		keep := 2 * bs
		survivor := "/t"
		if remove {
			err = m.Remove(p, "/t")
			keep, survivor = 0, ""
		} else {
			err = f.Truncate(p, keep)
		}
		if err != nil {
			return err
		}
		p.Sleep(sim.Second) // let both runs land
		if !fetched.stale || flushed.stale == remove {
			t.Errorf("stale after discard: prefetch %v, flush %v", fetched.stale, flushed.stale)
		}
		if !woken {
			t.Error("reader waiting on a discarded prefetch page never woke")
		}
		for _, pg := range pages {
			if m.pool.pages[pg.key] == pg {
				t.Errorf("discarded page %d resurrected in the pool", pg.key.idx)
			}
		}
		if st := m.Stats(); st.DirtyPages != 0 {
			t.Errorf("dirty pages = %d, want 0", st.DirtyPages)
		}
		// A flush that landed on freed slots left no bytes there.
		nsd, stale := r.fs.nsds[0], 0
		for b := range nsd.content {
			if !nsd.alloc.IsAllocated(b) {
				stale++
			}
		}
		if stale != 0 {
			t.Errorf("%d free slots hold content after the discard", stale)
		}
		// A new file takes the freed slots and writes the second half of
		// each block: it reads zeros in the halves it never wrote, and
		// both files read back exact.
		g, err := m.Create(p, "/heir", DefaultPerm)
		if err != nil {
			return err
		}
		heir := make([]byte, 22*int(bs))
		for i := 0; i < 22; i++ {
			half := heir[i*int(bs)+int(bs)/2 : (i+1)*int(bs)]
			for j := range half {
				half[j] = 0xC3
			}
			if err := g.WriteBytesAt(p, units.Bytes(i)*bs+bs/2, half); err != nil {
				return err
			}
		}
		if err := g.Sync(p); err != nil {
			return err
		}
		m.DropCaches()
		if got, err := g.ReadBytesAt(p, 0, units.Bytes(len(heir))); err != nil || !bytes.Equal(got, heir) {
			t.Errorf("heir file corrupt after the discard (err %v)", err)
		}
		if survivor != "" {
			if got, err := f.ReadBytesAt(p, 0, keep); err != nil || !bytes.Equal(got, data[:keep]) {
				t.Errorf("truncated file corrupt (err %v)", err)
			}
		}
		if rep := r.fs.Check(); !rep.OK() {
			t.Errorf("fsck after the discard: %v", rep)
		}
		return nil
	})
}

// TestTruncateWaitsOutFlushesInFlight: a file created the moment
// Truncate returns takes the slots Truncate freed. A flush of the
// discarded tail still in flight must land before those slots are freed;
// landing after, it writes the dead file's bytes into the new file's
// slots, and the new file reads them where it never wrote.
func TestTruncateWaitsOutFlushesInFlight(t *testing.T) {
	t.Parallel()
	r := newRig(t, 1, 0, 64*units.KiB) // one NSD: the heir takes the freed slots in order
	r.fs.EnableGather()
	cl := r.addClient("g", DefaultClientConfig(), Identity{DN: "/CN=g"})
	r.run(t, func(p *sim.Proc) error {
		m, err := cl.MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		bs := m.BlockSize()
		const blocks = 16
		f, err := m.Create(p, "/t", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, bytes.Repeat([]byte{0x5A}, blocks*int(bs))); err != nil {
			return err
		}
		if err := m.acquireToken(p, f.ino, 0, 1<<60, TokExclusive); err != nil {
			return err
		}
		m.flushDirty(m.pool.dirtyOf(f.ino), true)
		if tail := m.pool.get(pageKey{ino: f.ino, idx: blocks - 1}); tail == nil || !tail.flushing {
			return errors.New("tail flush not in flight before the truncate")
		}
		if err := f.Truncate(p, 0); err != nil {
			return err
		}
		// The heir writes the second half of each block and must read
		// zeros in every first half.
		g, err := m.Create(p, "/heir", DefaultPerm)
		if err != nil {
			return err
		}
		want := make([]byte, blocks*int(bs))
		for i := 0; i < blocks; i++ {
			half := want[i*int(bs)+int(bs)/2 : (i+1)*int(bs)]
			for j := range half {
				half[j] = 0xC3
			}
			if err := g.WriteBytesAt(p, units.Bytes(i)*bs+bs/2, half); err != nil {
				return err
			}
		}
		if err := g.Sync(p); err != nil {
			return err
		}
		m.DropCaches()
		got, err := g.ReadBytesAt(p, 0, units.Bytes(len(want)))
		if err != nil {
			return err
		}
		if dead := bytes.Count(got, []byte{0x5A}); dead != 0 || !bytes.Equal(got, want) {
			t.Errorf("heir reads %d bytes of the truncated file's data", dead)
		}
		if rep := r.fs.Check(); !rep.OK() {
			t.Errorf("fsck after the truncate: %v", rep)
		}
		return nil
	})
}

// seqBytes returns n bytes with a position-dependent pattern.
func seqBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/251)
	}
	return b
}
