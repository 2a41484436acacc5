package core

import (
	"fmt"

	"gfs/internal/disk"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// File is an open file handle on a mount.
//
// Two I/O families exist: the sized family (ReadAt/WriteAt) moves byte
// counts without materializing contents — this is what benchmarks use, at
// any scale — and the byte-exact family (ReadBytesAt/WriteBytesAt) carries
// real data end-to-end for correctness tests. Don't mix the families on
// the same blocks of the same file: sized I/O does not maintain content.
type File struct {
	m      *Mount
	ino    int64
	name   string
	size   units.Bytes
	layout []BlockRef
	gen    int64 // manager generation layout is a view of; -1 once mixed
	pos    units.Bytes

	// Sequential stream detector state. raDepth ramps up (2, 4, 8, ...)
	// as a stream proves itself, capped at ClientConfig.ReadAhead;
	// raEdge is the highest block index already handed to the
	// prefetcher, so each block is issued exactly once per stream.
	raDepth int
	raEdge  int64
}

// Name returns the file's base name.
func (f *File) Name() string { return f.name }

// Inode returns the inode number.
func (f *File) Inode() int64 { return f.ino }

// Size returns the locally known size (see Refresh).
func (f *File) Size() units.Bytes { return f.size }

// Pos returns the sequential position.
func (f *File) Pos() units.Bytes { return f.pos }

// Seek sets the sequential position.
func (f *File) Seek(off units.Bytes) { f.pos = off }

// Refresh re-reads attributes from the manager (needed to observe another
// client's appends).
func (f *File) Refresh(p *sim.Proc) error {
	resp := f.m.meta(p, metaOp{Op: "stat", Path: "", Inode: f.ino})
	if resp.Err != nil {
		return resp.Err
	}
	a := resp.Payload.(Attrs)
	if a.Size > f.size {
		f.size = a.Size
	}
	return nil
}

// Metadata chunking: one blocking RPC per block would serialize a WAN
// stream at one block per round trip, so layout is fetched and blocks are
// allocated in large batches.
const (
	layoutChunk = 1024 // block refs per layout RPC
	allocChunk  = 64   // blocks allocated ahead per alloc RPC
)

// ensureLayout fetches block refs so indexes [0, upto] are known.
func (f *File) ensureLayout(p *sim.Proc, upto int64) error {
	if int64(len(f.layout)) > upto {
		return nil
	}
	from := int64(len(f.layout))
	count := upto + 1 - from
	if count < layoutChunk {
		count = layoutChunk
	}
	resp := f.m.meta(p, metaOp{Op: "layout", Inode: f.ino, From: from, Count: count})
	if resp.Err != nil {
		return resp.Err
	}
	f.appendLayout(resp.Payload.(blockView))
	if int64(len(f.layout)) <= upto {
		return fmt.Errorf("core: %s: block %d beyond end of file: %w", f.name, upto, ErrStale)
	}
	return nil
}

// ensureAlloc allocates blocks so indexes [0, upto] exist, allocating a
// chunk ahead so sequential writers amortize the round trip. Excess blocks
// are returned on truncate/remove as usual.
func (f *File) ensureAlloc(p *sim.Proc, upto int64) error {
	if int64(len(f.layout)) > upto {
		return nil
	}
	from := int64(len(f.layout))
	count := upto + 1 - from
	if count < allocChunk {
		count = allocChunk
	}
	resp := f.m.meta(p, metaOp{Op: "alloc", Inode: f.ino, From: from, Count: count})
	if resp.Err != nil {
		return resp.Err
	}
	f.appendLayout(resp.Payload.(blockView))
	return nil
}

// appendLayout extends the cached layout with the refs v.Refs[v.From:]
// of a layout or alloc reply. v.Refs is a view of the inode's block
// list, which only grows between shrinks, and a shrink starts a new
// generation. So when the layout is empty, or is exactly [0, v.From) of
// the same generation, v.Refs holds the layout plus the new refs and is
// adopted whole: every handle on a shared file shares the manager's one
// list. Otherwise (a stale or truncated handle) the new refs are copied
// after the old ones into an array of the handle's own, which mixes
// generations for good.
func (f *File) appendLayout(v blockView) {
	if len(f.layout) == 0 || (int64(len(f.layout)) == v.From && f.gen == v.Gen) {
		f.layout, f.gen = v.Refs, v.Gen
		return
	}
	f.layout = append(f.layout, v.Refs[v.From:]...)
	f.gen = -1
}

// fetchAsync starts (or joins) a block fetch into the page pool. A
// prefetch fetch is speculative: it is issued by the sequential stream
// detector, accounted separately from demand misses, and the page stays
// marked prefetched until a demand read claims it (a prefetch hit) or
// the page is dropped unused. The pool's fetching flag doubles as the
// in-flight dedupe map: a demand read landing on an in-flight prefetch
// joins it instead of issuing a second RPC.
func (m *Mount) fetchAsync(f *File, idx int64, ref BlockRef, verify, prefetch bool) *page {
	k := pageKey{ino: f.ino, idx: idx}
	pg := m.pool.get(k)
	if pg == nil {
		pg = m.pool.add(k, ref)
	}
	if pg.fetching || (pg.present && (!verify || pg.hasBytes || pg.dirty)) {
		if !prefetch && pg.prefetched {
			// Demand read claims a prefetched (or in-flight prefetch)
			// page: the speculation paid off.
			pg.prefetched = false
			m.st.PrefetchHits++
		}
		return pg
	}
	pg.fetching = true
	pg.inPrefetch = prefetch
	opName := "fetch"
	tr, _ := m.obs()
	if prefetch {
		pg.prefetched = true
		m.st.PrefetchIssued++
		opName = "prefetch"
	} else {
		pg.prefetched = false
		m.st.CacheMisses++
	}
	// Each fetch is its own background operation: several foreground
	// reads may wait on the same in-flight fetch, so the RPC tree hangs
	// off a "fetch"/"prefetch" op of its own and foreground fetch_wait
	// spans are redistributed over the aggregate fetch profile by
	// critpath.
	rec := m.beginBgOp(opName)
	if tr != nil {
		what := "miss"
		if prefetch {
			what = "prefetch"
		}
		tr.InstantCtx(rec.ctx(), "cache", what, m.c.id, int64(m.c.sim.Now()),
			trace.I("ino", f.ino), trace.I("block", idx))
	}
	bs := m.info.BlockSize
	m.goIO(rec.ctx(), ref.NSD, 64, ioPayload{
		Cluster: m.c.cluster.Name, FS: m.fsName,
		NSD: ref.NSD, Block: ref.Block, Off: 0, Len: bs,
		Op: disk.Read, Verify: verify,
	}, func(resp netsim.Response) {
		pg.fetching = false
		pg.inPrefetch = false
		m.endBgOp(rec, trace.I("ino", f.ino), trace.I("block", idx), trace.I("bytes", int64(bs)))
		if pg.stale {
			// The block was freed (truncate/remove) while the fetch was
			// in flight; the page must not be resurrected.
			ws := pg.waiters
			pg.waiters = nil
			for _, w := range ws {
				w()
			}
			m.pool.remove(pg)
			return
		}
		if resp.Err == nil {
			pg.present = true
			pg.err = nil
			m.st.BytesRead += bs
			if verify {
				if bytes, ok := resp.Payload.([]byte); ok {
					pg.mergeFetched(m.arena, bytes, bs)
				}
			}
		} else {
			pg.err = resp.Err
		}
		ws := pg.waiters
		pg.waiters = nil
		for _, w := range ws {
			w()
		}
		m.pool.evict()
	})
	return pg
}

// prefetchBatch issues the readahead window [from,last] as the fewest
// possible NSD RPCs: runs of absent blocks that sit consecutively on one
// NSD (stripe-group allocation makes these the common case) go out as
// single multi-block fetches; everything else falls back to the per-block
// prefetch path.
func (m *Mount) prefetchBatch(f *File, from, last int64, verify bool) {
	var run []int64
	flush := func() {
		switch {
		case len(run) == 0:
		case len(run) == 1:
			m.fetchAsync(f, run[0], f.layout[run[0]], verify, true)
		default:
			m.fetchRunAsync(f, run, verify)
		}
		run = nil
	}
	for idx := from; idx <= last; idx++ {
		if m.pool.get(pageKey{ino: f.ino, idx: idx}) != nil {
			// Cached or already in flight: fetchAsync dedupes. Breaks the run.
			flush()
			m.fetchAsync(f, idx, f.layout[idx], verify, true)
			continue
		}
		if n := len(run); n > 0 {
			prev, cur := f.layout[run[n-1]], f.layout[idx]
			if cur.NSD != prev.NSD || cur.Block != prev.Block+1 {
				flush()
			}
		}
		run = append(run, idx)
	}
	flush()
}

// fetchRunAsync issues one multi-block prefetch covering consecutive
// blocks of one NSD. Pages are created up front and marked fetching, so a
// demand read arriving mid-flight joins the batch like any other fetch.
func (m *Mount) fetchRunAsync(f *File, idxs []int64, verify bool) {
	bs := m.info.BlockSize
	k := len(idxs)
	first := f.layout[idxs[0]]
	pages := make([]*page, k)
	for i, idx := range idxs {
		pg := m.pool.add(pageKey{ino: f.ino, idx: idx}, f.layout[idx])
		pg.fetching = true
		pg.inPrefetch = true
		pg.prefetched = true
		pages[i] = pg
	}
	m.st.PrefetchIssued += uint64(k)
	m.st.BatchedFetches++
	tr, _ := m.obs()
	rec := m.beginBgOp("prefetch")
	if tr != nil {
		tr.InstantCtx(rec.ctx(), "cache", "prefetch", m.c.id, int64(m.c.sim.Now()),
			trace.I("ino", f.ino), trace.I("block", idxs[0]), trace.I("blocks", int64(k)))
	}
	ln := bs * units.Bytes(k)
	m.goIO(rec.ctx(), first.NSD, 64, ioPayload{
		Cluster: m.c.cluster.Name, FS: m.fsName,
		NSD: first.NSD, Block: first.Block, Off: 0, Len: ln, Count: int64(k),
		Op: disk.Read, Verify: verify,
	}, func(resp netsim.Response) {
		media, _ := resp.Payload.([]byte)
		m.endBgOp(rec, trace.I("ino", f.ino), trace.I("block", idxs[0]), trace.I("bytes", int64(ln)))
		for i, pg := range pages {
			pg.fetching = false
			pg.inPrefetch = false
			if pg.stale {
				ws := pg.waiters
				pg.waiters = nil
				for _, w := range ws {
					w()
				}
				m.pool.remove(pg)
				continue
			}
			if resp.Err == nil {
				pg.present = true
				pg.err = nil
				m.st.BytesRead += bs
				if verify && units.Bytes(len(media)) == ln {
					pg.mergeFetched(m.arena, media[units.Bytes(i)*bs:units.Bytes(i+1)*bs], bs)
				}
			} else {
				pg.err = resp.Err
			}
			ws := pg.waiters
			pg.waiters = nil
			for _, w := range ws {
				w()
			}
		}
		m.pool.evict()
	})
}

// mergeFetched installs media bytes without clobbering a dirty interval.
func (pg *page) mergeFetched(a *bufArena, media []byte, bs units.Bytes) {
	if pg.data == nil {
		pg.data = a.getBlock()
		copy(pg.data, media)
		pg.hasBytes = true
		return
	}
	for i := units.Bytes(0); i < units.Bytes(len(media)); i++ {
		if pg.dirty && i >= pg.dFrom && i < pg.dTo {
			continue
		}
		pg.data[i] = media[i]
	}
	pg.hasBytes = true
}

// waitPage blocks p until the page's fetch completes.
func (m *Mount) waitPage(p *sim.Proc, pg *page) error {
	for pg.fetching {
		pg.waiters = append(pg.waiters, p.Suspend())
		p.Block()
	}
	return pg.err
}

// ReadAt moves size bytes at offset off through the full data path
// (tokens, cache, NSD servers) without materializing contents.
func (f *File) ReadAt(p *sim.Proc, off, size units.Bytes) error {
	_, err := f.readAt(p, off, size, false)
	return err
}

// ReadBytesAt is the byte-exact read.
func (f *File) ReadBytesAt(p *sim.Proc, off, size units.Bytes) ([]byte, error) {
	return f.readAt(p, off, size, true)
}

func (f *File) readAt(p *sim.Proc, off, size units.Bytes, verify bool) ([]byte, error) {
	if off < 0 || size < 0 {
		return nil, fmt.Errorf("core: bad read range")
	}
	if size == 0 {
		return nil, nil
	}
	if off+size > f.size {
		return nil, fmt.Errorf("core: read [%d,%d) beyond EOF %d of %s: %w", off, off+size, f.size, f.name, ErrStale)
	}
	m := f.m
	if m.detached {
		return nil, fmt.Errorf("core: %s on %s: %w", m.Device, m.c.id, ErrNotMounted)
	}
	m.st.Reads++
	rec := m.beginOp(p, "read")
	if rec.tr != nil {
		defer func() {
			m.endOp(p, rec, trace.I("ino", f.ino), trace.I("off", int64(off)), trace.I("bytes", int64(size)))
		}()
	}
	if err := m.acquireToken(p, f.ino, off, off+size, TokShared); err != nil {
		return nil, err
	}
	bs := m.info.BlockSize
	lastIdx := int64((off + size - 1) / bs)
	if err := f.ensureLayout(p, lastIdx); err != nil {
		return nil, err
	}
	sequential := off == f.pos
	sps := spans(bs, off, size)
	pages := make([]*page, len(sps))
	tr, _ := m.obs()
	var hits uint64
	for i, sp := range sps {
		pg := m.fetchAsync(f, sp.Index, f.layout[sp.Index], verify, false)
		if !pg.fetching && pg.present {
			m.st.CacheHits++
			hits++
		}
		pg.pins++
		pages[i] = pg
	}
	// The pins keep each page's data buffer alive until the copy-out below:
	// while this proc blocks in waitPage, a concurrent completion may evict
	// a clean page from the pool, and an unpinned eviction would hand the
	// buffer back to the arena mid-read.
	defer func() {
		for _, pg := range pages {
			m.pool.unpin(pg)
		}
	}()
	if hits > 0 && tr != nil {
		tr.Instant("cache", "hit", m.c.id, int64(m.c.sim.Now()),
			trace.I("ino", f.ino), trace.I("blocks", int64(hits)))
	}
	// Read-ahead: the stream detector keeps a pipeline of speculative
	// block fetches in flight beyond the request on sequential access —
	// the mechanism that makes a WAN RTT survivable. The depth ramps up
	// as the stream proves itself; raEdge dedupes issue across reads.
	if sequential && m.c.cfg.ReadAhead > 0 {
		if f.raDepth < m.c.cfg.ReadAhead {
			if f.raDepth == 0 {
				f.raDepth = m.c.cfg.ReadAhead / 4
				if f.raDepth < 2 {
					f.raDepth = 2
				}
			} else {
				f.raDepth *= 2
			}
			if f.raDepth > m.c.cfg.ReadAhead {
				f.raDepth = m.c.cfg.ReadAhead
			}
		}
		raLast := lastIdx + int64(f.raDepth)
		if maxIdx := int64((f.size - 1) / bs); raLast > maxIdx {
			raLast = maxIdx
		}
		// A stale edge from an earlier stream (behind us, or implausibly
		// far ahead after a backwards seek) is reset to the current head.
		if f.raEdge < lastIdx || f.raEdge > lastIdx+int64(m.c.cfg.ReadAhead) {
			f.raEdge = lastIdx
		}
		raFrom := f.raEdge + 1
		if raFrom <= raLast {
			if err := f.ensureLayout(p, raLast); err == nil {
				if m.c.cfg.Gather {
					m.prefetchBatch(f, raFrom, raLast, verify)
				} else {
					for idx := raFrom; idx <= raLast; idx++ {
						m.fetchAsync(f, idx, f.layout[idx], verify, true)
					}
				}
				f.raEdge = raLast
				m.st.ReadaheadBlocks += uint64(raLast - raFrom + 1)
				if tr != nil {
					tr.Instant("cache", "readahead", m.c.id, int64(m.c.sim.Now()),
						trace.I("ino", f.ino), trace.I("blocks", raLast-raFrom+1))
				}
			}
		}
	} else if !sequential {
		// Stream broken: restart the ramp and the prefetch edge here.
		f.raDepth = 0
		f.raEdge = lastIdx
	}
	// Classify the stall before blocking: waiting only on in-flight
	// prefetches is residual (partially hidden) prefetch latency, traced
	// as prefetch_hit; waiting on any demand fetch is a plain fetch_wait.
	var waitStart int64
	waitName := "fetch_wait"
	if rec.tr != nil {
		waitStart = int64(m.c.sim.Now())
		demandWait := false
		prefetchWait := false
		for _, pg := range pages {
			if pg.fetching {
				if pg.inPrefetch {
					prefetchWait = true
				} else {
					demandWait = true
				}
			}
		}
		if prefetchWait && !demandWait {
			waitName = "prefetch_hit"
		}
	}
	for _, pg := range pages {
		if err := m.waitPage(p, pg); err != nil {
			return nil, err
		}
	}
	m.waitSpan(p, rec.tr, waitName, waitStart)
	f.pos = off + size
	if !verify {
		return nil, nil
	}
	out := make([]byte, 0, size)
	for i, sp := range sps {
		pg := pages[i]
		if pg.data != nil {
			out = append(out, pg.data[sp.Offset:sp.Offset+sp.Len]...)
		} else {
			out = append(out, make([]byte, sp.Len)...)
		}
	}
	return out, nil
}

// WriteAt moves size bytes at offset off (sized family).
func (f *File) WriteAt(p *sim.Proc, off, size units.Bytes) error {
	return f.writeAt(p, off, size, nil)
}

// WriteBytesAt is the byte-exact write.
func (f *File) WriteBytesAt(p *sim.Proc, off units.Bytes, data []byte) error {
	return f.writeAt(p, off, units.Bytes(len(data)), data)
}

func (f *File) writeAt(p *sim.Proc, off, size units.Bytes, data []byte) error {
	if off < 0 || size < 0 {
		return fmt.Errorf("core: bad write range")
	}
	if size == 0 {
		return nil
	}
	m := f.m
	if m.detached {
		return fmt.Errorf("core: %s on %s: %w", m.Device, m.c.id, ErrNotMounted)
	}
	m.st.Writes++
	rec := m.beginOp(p, "write")
	if rec.tr != nil {
		defer func() {
			m.endOp(p, rec, trace.I("ino", f.ino), trace.I("off", int64(off)), trace.I("bytes", int64(size)))
		}()
	}
	if err := m.acquireToken(p, f.ino, off, off+size, TokExclusive); err != nil {
		return err
	}
	bs := m.info.BlockSize
	lastIdx := int64((off + size - 1) / bs)
	if err := f.ensureAlloc(p, lastIdx); err != nil {
		return err
	}
	var dataOff units.Bytes
	for _, sp := range spans(bs, off, size) {
		k := pageKey{ino: f.ino, idx: sp.Index}
		pg := m.pool.get(k)
		if pg == nil {
			pg = m.pool.add(k, f.layout[sp.Index])
		}
		if data != nil {
			if pg.data == nil {
				pg.data = m.arena.getBlock()
			}
			copy(pg.data[sp.Offset:], data[dataOff:dataOff+sp.Len])
			pg.hasBytes = true
		}
		dataOff += sp.Len
		pg.gen++
		if !pg.dirty {
			m.pool.markDirty(pg)
			pg.dFrom, pg.dTo = sp.Offset, sp.Offset+sp.Len
		} else {
			if sp.Offset < pg.dFrom {
				pg.dFrom = sp.Offset
			}
			if sp.Offset+sp.Len > pg.dTo {
				pg.dTo = sp.Offset + sp.Len
			}
		}
		pg.present = true
	}
	if off+size > f.size {
		f.size = off + size
	}
	f.pos = off + size
	// Write-behind: once enough dirty pages accumulate the scheduler
	// flushes them asynchronously; the writer is blocked (backpressure)
	// only when far over the limit, and that stall is traced as its own
	// writeback phase — the visible cost of the -wb-max-dirty knob.
	if len(m.pool.dirty) >= m.c.cfg.WriteBehind {
		m.writeBehind(f.ino)
	}
	if len(m.pool.dirty) >= 2*m.c.cfg.WriteBehind {
		m.st.WriteStalls++
		var waitStart int64
		if rec.tr != nil {
			waitStart = int64(m.c.sim.Now())
		}
		for len(m.pool.dirty) >= 2*m.c.cfg.WriteBehind {
			m.flSig.Wait(p)
			if m.c.cfg.Gather && len(m.pool.dirty) >= 2*m.c.cfg.WriteBehind {
				// Gathered write-behind may have held edge runs back; keep
				// the scheduler running so the stall always ends (it falls
				// back to unaligned flushing once nothing is in flight).
				m.writeBehind(f.ino)
			}
		}
		m.waitSpan(p, rec.tr, "writeback", waitStart)
	}
	return nil
}

// writeBehind is the background flush scheduler, run when the pool's
// dirty-page count crosses the configured bound. The inode that tripped
// the bound flushes first (in block order), then any other inode with
// dirty pages — a multi-file writer is bounded too, not just the file
// being written.
func (m *Mount) writeBehind(ino int64) {
	m.st.WritebehindTriggers++
	if tr, _ := m.obs(); tr != nil {
		tr.Instant("cache", "writebehind", m.c.id, int64(m.c.sim.Now()),
			trace.I("ino", ino), trace.I("dirty", int64(len(m.pool.dirty))))
	}
	issued := m.flushDirty(m.pool.dirtyOf(ino), false)
	var others []*page
	for _, pg := range m.pool.dirty {
		if pg.key.ino != ino {
			others = append(others, pg)
		}
	}
	issued += m.flushDirty(others, false)
	if issued == 0 && m.flInFlight == 0 {
		// Gathering held every run back (all sub-stripe edges) while the
		// pool sits over its dirty bound and nothing is in flight: flush
		// unaligned rather than let the writer's backpressure loop wait
		// forever for a flush ack that is never coming.
		m.flushDirty(m.pool.dirty, true)
	}
}

// flushAllDirty starts async flushes for every dirty page of an inode.
func (m *Mount) flushAllDirty(ino int64) {
	m.flushDirty(m.pool.dirtyOf(ino), true)
}

// gatherRuns groups pages (pre-sorted by inode and block index) into runs
// flushable as one NSD RPC: fully-dirty pages of one inode, consecutive
// in both file block index and NSD block slot, uniform in hasBytes.
// Partially-dirty pages always end up as singleton runs.
func (m *Mount) gatherRuns(pgs []*page) [][]*page {
	bs := m.info.BlockSize
	var runs [][]*page
	for _, pg := range pgs {
		if n := len(runs); n > 0 {
			last := runs[n-1]
			prev := last[len(last)-1]
			if pg.dFrom == 0 && pg.dTo == bs &&
				prev.dFrom == 0 && prev.dTo == bs &&
				pg.key.ino == prev.key.ino && pg.key.idx == prev.key.idx+1 &&
				pg.ref.NSD == prev.ref.NSD && pg.ref.Block == prev.ref.Block+1 &&
				pg.hasBytes == prev.hasBytes {
				runs[n-1] = append(last, pg)
				continue
			}
		}
		runs = append(runs, []*page{pg})
	}
	return runs
}

// flushDirty starts flushes for the dirty, not-yet-flushing pages of pgs
// and returns how many flush RPCs it issued. With gathering off, every
// page goes out alone (the historical path, byte-identical). With it on,
// contiguous runs go out as single multi-block RPCs; in non-barrier mode
// (write-behind) a run's unaligned edges are additionally held back so
// the next round can complete them into full RAID stripes — the store
// then skips its parity read entirely. Barrier callers (sync, revoke,
// unmount, truncate) flush everything regardless of alignment.
func (m *Mount) flushDirty(pgs []*page, barrier bool) int {
	var cand []*page
	for _, pg := range pgs {
		if pg.dirty && !pg.flushing {
			cand = append(cand, pg)
		}
	}
	if len(cand) == 0 {
		return 0
	}
	if !m.c.cfg.Gather {
		for _, pg := range cand {
			m.flushAsync(pg)
		}
		return len(cand)
	}
	bs := m.info.BlockSize
	issued := 0
	for _, run := range m.gatherRuns(cand) {
		lo, n := 0, len(run)
		if !barrier {
			if run[0].dFrom != 0 || run[0].dTo != bs {
				// Partially-dirty page (always a singleton run): hold it
				// back — a writer straddling block boundaries completes it
				// on its next transfer, and flushing the half now means
				// paying the store's read-modify-write twice for one block.
				// Barrier callers and the write-behind fallback still flush
				// partials, so a lone half page cannot stall the pool.
				continue
			}
			if sw := m.stripeWOf(run[0].ref.NSD); sw > 0 && sw%bs == 0 {
				if swb := int(sw / bs); swb > 1 && run[0].dFrom == 0 && run[0].dTo == bs {
					skip := (swb - int(run[0].ref.Block)%swb) % swb
					aligned := (n - skip) / swb * swb
					if aligned <= 0 {
						continue // no full stripe accumulated yet; stays dirty
					}
					lo, n = skip, aligned
				}
			}
		}
		m.flushGathered(run[lo : lo+n])
		issued++
	}
	return issued
}

// flushGathered writes one run of fully-dirty consecutive pages back as a
// single multi-block NSD RPC (single-page runs take the ordinary path).
// The store sees one contiguous write — stripe-aligned runs hit the RAID
// full-stripe path with no parity read. A failed gathered flush leaves
// every page dirty with a sticky error: it must not ack.
func (m *Mount) flushGathered(run []*page) {
	if len(run) == 1 {
		m.flushAsync(run[0])
		return
	}
	bs := m.info.BlockSize
	n := len(run)
	ln := bs * units.Bytes(n)
	for _, pg := range run {
		pg.flushing = true
	}
	m.st.Writebacks += uint64(n)
	m.st.GatheredFlushes++
	if sw := m.stripeWOf(run[0].ref.NSD); sw > 0 && sw%bs == 0 {
		if swb := int64(sw / bs); swb >= 1 && run[0].ref.Block%swb == 0 {
			m.st.FullStripeWrites += uint64(int64(n) / swb)
		}
	}
	var data []byte
	if run[0].hasBytes {
		data = m.arena.getScratch(int(ln))
		for i, pg := range run {
			copy(data[units.Bytes(i)*bs:], pg.data)
		}
	}
	snapGens := make([]uint64, n)
	for i, pg := range run {
		snapGens[i] = pg.gen
	}
	_, reg := m.obs()
	issued := m.c.sim.Now()
	rec := m.beginBgOp("flush")
	m.wgFl.Add(1)
	m.flInFlight++
	m.goIO(rec.ctx(), run[0].ref.NSD, ln, ioPayload{
		Cluster: m.c.cluster.Name, FS: m.fsName,
		NSD: run[0].ref.NSD, Block: run[0].ref.Block, Off: 0, Len: ln, Count: int64(n),
		Op: disk.Write, Data: data,
	}, func(resp netsim.Response) {
		// The server copied the payload on receipt (goIO retries resend the
		// same slice, but onDone runs once, after the final attempt), so the
		// staging buffer is dead here and can be recycled.
		m.arena.putScratch(data)
		for _, pg := range run {
			pg.flushing = false
		}
		m.flInFlight--
		m.endBgOp(rec, trace.I("ino", run[0].key.ino), trace.I("bytes", int64(ln)), trace.I("blocks", int64(n)))
		m.st.Flushes++
		if reg != nil {
			reg.Histogram("cache.flush_ns").Observe(float64(m.c.sim.Now() - issued))
		}
		for i, pg := range run {
			if pg.stale {
				m.pool.markClean(pg)
				m.pool.remove(pg)
				continue
			}
			if resp.Err == nil {
				pg.err = nil
				m.st.BytesWritten += bs
				// Same rule as flushAsync: a page rewritten mid-flight
				// (generation moved) stays dirty and flushes again.
				if pg.gen == snapGens[i] {
					m.pool.markClean(pg)
				}
			} else {
				pg.err = resp.Err
			}
		}
		m.wgFl.Done()
		m.flSig.Fire()
		m.pool.evict()
	})
}

// flushAsync writes a page's dirty interval back to its NSD server.
func (m *Mount) flushAsync(pg *page) {
	if pg.flushing || !pg.dirty {
		return
	}
	pg.flushing = true
	m.st.Writebacks++
	snapFrom, snapTo := pg.dFrom, pg.dTo
	snapGen := pg.gen
	var data []byte
	if pg.hasBytes {
		data = m.arena.getScratch(int(snapTo - snapFrom))
		copy(data, pg.data[snapFrom:snapTo])
	}
	_, reg := m.obs()
	issued := m.c.sim.Now()
	// Each write-back is its own background "flush" op: the writer that
	// dirtied the page has long since returned, and wb_wait/sync_wait
	// time is redistributed over the aggregate flush profile by critpath.
	rec := m.beginBgOp("flush")
	m.wgFl.Add(1)
	m.flInFlight++
	m.goIO(rec.ctx(), pg.ref.NSD, snapTo-snapFrom, ioPayload{
		Cluster: m.c.cluster.Name, FS: m.fsName,
		NSD: pg.ref.NSD, Block: pg.ref.Block, Off: snapFrom, Len: snapTo - snapFrom,
		Op: disk.Write, Data: data,
	}, func(resp netsim.Response) {
		m.arena.putScratch(data) // server copied the payload; buffer is dead
		pg.flushing = false
		m.flInFlight--
		m.endBgOp(rec, trace.I("ino", pg.key.ino), trace.I("bytes", int64(snapTo-snapFrom)))
		m.st.Flushes++
		if reg != nil {
			reg.Histogram("cache.flush_ns").Observe(float64(m.c.sim.Now() - issued))
		}
		if pg.stale {
			// The block was freed (truncate/remove) mid-flush; drop the
			// page rather than reinstating any state.
			m.pool.markClean(pg)
			m.wgFl.Done()
			m.flSig.Fire()
			m.pool.remove(pg)
			return
		}
		if resp.Err == nil {
			pg.err = nil
			m.st.BytesWritten += snapTo - snapFrom
			// Clean only if nothing touched the page while the flush was
			// in flight; an unchanged interval is not enough — the content
			// may have been rewritten in place.
			if pg.gen == snapGen {
				m.pool.markClean(pg)
			}
		} else {
			pg.err = resp.Err
		}
		m.wgFl.Done()
		m.flSig.Fire()
		m.pool.evict()
	})
}

// Sync flushes all dirty state of the file and publishes its size.
func (f *File) Sync(p *sim.Proc) error {
	m := f.m
	if m.detached {
		return fmt.Errorf("core: %s on %s: %w", m.Device, m.c.id, ErrNotMounted)
	}
	rec := m.beginOp(p, "sync")
	if rec.tr != nil {
		defer func() { m.endOp(p, rec, trace.I("ino", f.ino)) }()
	}
	var waitStart int64
	if rec.tr != nil {
		waitStart = int64(m.c.sim.Now())
	}
	for {
		m.flushAllDirty(f.ino)
		m.wgFl.Wait(p)
		still := false
		for _, pg := range m.pool.pagesOf(f.ino) {
			if pg.err != nil {
				return pg.err
			}
			if pg.dirty {
				still = true
			}
		}
		if !still {
			break
		}
	}
	m.waitSpan(p, rec.tr, "sync_wait", waitStart)
	return m.meta(p, metaOp{Op: "setsize", Inode: f.ino, Size: f.size}).Err
}

// Close syncs and releases the handle (tokens are retained for reuse, as
// GPFS does).
func (f *File) Close(p *sim.Proc) error {
	f.m.st.Closes++
	return f.Sync(p)
}

// Truncate shrinks or logically extends the file. It is a write-behind
// barrier: dirty pages below the new size flush first, and pages at or
// beyond it are discarded (their dirty data is semantically gone) — a
// flush landing after the blocks were freed would corrupt whatever file
// the allocator hands those blocks next.
func (f *File) Truncate(p *sim.Proc, size units.Bytes) error {
	if f.m.detached {
		return fmt.Errorf("core: %s on %s: %w", f.m.Device, f.m.c.id, ErrNotMounted)
	}
	if err := f.m.acquireToken(p, f.ino, 0, 1<<60, TokExclusive); err != nil {
		return err
	}
	bs := f.m.info.BlockSize
	keep := int64((size + bs - 1) / bs)
	f.m.pool.discard(f.ino, keep)
	f.m.flushRange(p, f.ino, 0, units.Bytes(keep)*bs)
	resp := f.m.meta(p, metaOp{Op: "truncate", Inode: f.ino, Size: size})
	if resp.Err != nil {
		return resp.Err
	}
	f.size = size
	if f.pos > size {
		f.pos = size
	}
	if int64(len(f.layout)) > keep {
		// Clip the capacity too: the layout may be a view of the
		// manager's list, which no append may write into.
		f.layout = f.layout[:keep:keep]
	}
	if f.raEdge >= keep {
		f.raEdge = 0
		f.raDepth = 0
	}
	return nil
}

// Read moves size bytes from the sequential position.
func (f *File) Read(p *sim.Proc, size units.Bytes) error {
	return f.ReadAt(p, f.pos, size)
}

// Write moves size bytes at the sequential position.
func (f *File) Write(p *sim.Proc, size units.Bytes) error {
	return f.WriteAt(p, f.pos, size)
}
