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

// fetchRun reads the n blocks of f from index idx on, which sit
// consecutively on one NSD, into the page pool as one NSD RPC, and
// returns the first block's page. A demand miss is a run of one; longer
// runs come only from the readahead issuer (prefetchBatch). Only a run of
// one may join a page already cached or in flight: the pool's fetching
// flag doubles as the in-flight dedupe map, so a demand read landing on an
// in-flight prefetch joins it instead of issuing a second RPC. A longer
// run covers absent blocks only; its pages are created up front and
// marked fetching, so a demand read arriving mid-flight joins it too.
//
// A prefetch is speculative: it is accounted separately from demand
// misses, and its pages stay marked prefetched until a demand read claims
// them (a prefetch hit) or they are dropped unused.
func (m *Mount) fetchRun(f *File, idx, n int64, verify, prefetch bool) *page {
	k := pageKey{ino: f.ino, idx: idx}
	pg := m.pool.get(k)
	if pg == nil {
		pg = m.pool.add(k, f.layout[idx])
	} else if pg.fetching || (pg.present && (!verify || pg.hasBytes || pg.dirty)) {
		if !prefetch && pg.prefetched {
			// Demand read claims a prefetched (or in-flight prefetch)
			// page: the speculation paid off.
			pg.prefetched = false
			m.st.PrefetchHits++
		}
		return pg
	}
	pg.startFetch(prefetch)
	var rest []*page
	if n > 1 {
		rest = make([]*page, n-1)
		for i := range rest {
			j := idx + 1 + int64(i)
			rest[i] = m.pool.add(pageKey{ino: f.ino, idx: j}, f.layout[j])
			rest[i].startFetch(prefetch)
		}
		m.st.BatchedFetches++
	}
	opName, what := "fetch", "miss"
	if prefetch {
		opName, what = "prefetch", "prefetch"
		m.st.PrefetchIssued += uint64(n)
	} else {
		m.st.CacheMisses++
	}
	// Each fetch is its own background operation: several foreground
	// reads may wait on the same in-flight fetch, so the RPC tree hangs
	// off a "fetch"/"prefetch" op of its own and foreground fetch_wait
	// spans are redistributed over the aggregate fetch profile by
	// critpath.
	rec := m.beginBgOp(opName)
	if tr, _ := m.obs(); tr != nil {
		if n > 1 {
			tr.InstantCtx(rec.ctx(), "cache", what, m.c.id, int64(m.c.sim.Now()),
				trace.I("ino", f.ino), trace.I("block", idx), trace.I("blocks", n))
		} else {
			tr.InstantCtx(rec.ctx(), "cache", what, m.c.id, int64(m.c.sim.Now()),
				trace.I("ino", f.ino), trace.I("block", idx))
		}
	}
	ref := f.layout[idx]
	ln := m.info.BlockSize * units.Bytes(n)
	m.goIO(rec.ctx(), ref.NSD, 64, ioPayload{
		Cluster: m.c.cluster.Name, FS: m.fsName,
		NSD: ref.NSD, Block: ref.Block, Off: 0, Len: ln, Count: n,
		Op: disk.Read, Verify: verify,
	}, func(resp netsim.Response) {
		m.endBgOp(rec, trace.I("ino", pg.key.ino), trace.I("block", pg.key.idx), trace.I("bytes", int64(ln)))
		media, _ := resp.Payload.([]byte)
		if !verify || units.Bytes(len(media)) != ln {
			media = nil
		}
		landed := m.landFetch(pg, resp.Err, media)
		for _, q := range rest {
			if media != nil {
				media = media[m.info.BlockSize:]
			}
			landed = m.landFetch(q, resp.Err, media) || landed
		}
		if landed {
			m.pool.evict()
		}
	})
	return pg
}

// startFetch marks a page as being filled by a fetch.
func (pg *page) startFetch(prefetch bool) {
	pg.fetching = true
	pg.inPrefetch = prefetch
	pg.prefetched = prefetch
}

// landFetch completes one page of a fetch run and wakes its waiters; media
// starts with the page's block (nil unless the run was verified). It
// reports whether the page landed: a page discarded (truncate/remove)
// while the fetch was in flight is dropped after the wake instead, never
// resurrected.
func (m *Mount) landFetch(pg *page, err error, media []byte) bool {
	pg.fetching = false
	pg.inPrefetch = false
	landed := !pg.stale
	switch {
	case !landed:
	case err != nil:
		pg.err = err
	default:
		bs := m.info.BlockSize
		pg.present = true
		pg.err = nil
		m.st.BytesRead += bs
		if media != nil {
			pg.mergeFetched(m.arena, media[:bs], bs)
		}
	}
	ws := pg.waiters
	pg.waiters = nil
	for _, w := range ws {
		w()
	}
	if !landed {
		m.pool.remove(pg)
	}
	return landed
}

// prefetchBatch issues the readahead window [from,last] as the fewest
// NSD RPCs gathering allows. With it on, a run of absent blocks that sit
// consecutively on one NSD (stripe-group allocation makes these the
// common case) goes out as one multi-block fetch; with it off, every
// block is a run of one. A block already cached or in flight breaks the
// run and goes to fetchRun alone, which dedupes it.
func (m *Mount) prefetchBatch(f *File, from, last int64, verify bool) {
	run := from // [run, idx) is the pending run of absent blocks
	for idx := from; idx <= last; idx++ {
		if m.pool.get(pageKey{ino: f.ino, idx: idx}) != nil {
			if run < idx {
				m.fetchRun(f, run, idx-run, verify, true)
			}
			m.fetchRun(f, idx, 1, verify, true)
			run = idx + 1
			continue
		}
		if run < idx {
			prev, cur := f.layout[idx-1], f.layout[idx]
			if !m.info.Gather || cur.NSD != prev.NSD || cur.Block != prev.Block+1 {
				m.fetchRun(f, run, idx-run, verify, true)
				run = idx
			}
		}
	}
	if run <= last {
		m.fetchRun(f, run, last+1-run, verify, true)
	}
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
		pg := m.fetchRun(f, sp.Index, 1, verify, false)
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
		tr.InstantCtx(trace.Ctx{}, "cache", "hit", m.c.id, int64(m.c.sim.Now()),
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
				m.prefetchBatch(f, raFrom, raLast, verify)
				f.raEdge = raLast
				m.st.ReadaheadBlocks += uint64(raLast - raFrom + 1)
				if tr != nil {
					tr.InstantCtx(trace.Ctx{}, "cache", "readahead", m.c.id, int64(m.c.sim.Now()),
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
			if m.info.Gather && len(m.pool.dirty) >= 2*m.c.cfg.WriteBehind {
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
		tr.InstantCtx(trace.Ctx{}, "cache", "writebehind", m.c.id, int64(m.c.sim.Now()),
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

// flushDirty starts flushes for the dirty, not-yet-flushing pages of pgs
// (sorted by inode and block index) and returns how many flush RPCs it
// issued. Each RPC carries one run, cut in place from the candidates.
// With gathering on, fully-dirty pages consecutive in both file block
// index and NSD slot, and uniform in hasBytes, join one run; otherwise
// every page is a run of one. In non-barrier mode (write-behind),
// gathering also holds a run's unaligned edges back so the next round can
// complete them into full RAID stripes — the store then skips its parity
// read entirely. Barrier callers (sync, revoke, unmount, truncate) flush
// everything regardless of alignment.
func (m *Mount) flushDirty(pgs []*page, barrier bool) int {
	var cand []*page
	for _, pg := range pgs {
		if pg.dirty && !pg.flushing {
			cand = append(cand, pg)
		}
	}
	gather := m.info.Gather
	bs := m.info.BlockSize
	issued := 0
	for lo := 0; lo < len(cand); {
		hi := lo + 1
		for gather && hi < len(cand) && joinsRun(cand[hi-1], cand[hi], bs) {
			hi++
		}
		run := cand[lo:hi]
		lo = hi
		if gather && !barrier {
			if run[0].dFrom != 0 || run[0].dTo != bs {
				// Partially-dirty page (always a run of one): hold it back —
				// a writer straddling block boundaries completes it on its
				// next transfer, and flushing the half now means paying the
				// store's read-modify-write twice for one block. Barrier
				// callers and the write-behind fallback still flush
				// partials, so a lone half page cannot stall the pool.
				continue
			}
			if sw := m.stripeWOf(run[0].ref.NSD); sw > 0 && sw%bs == 0 {
				if swb := int(sw / bs); swb > 1 {
					skip := (swb - int(run[0].ref.Block)%swb) % swb
					aligned := (len(run) - skip) / swb * swb
					if aligned <= 0 {
						continue // no full stripe accumulated yet; stays dirty
					}
					run = run[skip : skip+aligned]
				}
			}
		}
		m.flushRun(run)
		issued++
	}
	return issued
}

// joinsRun reports whether pg may follow prev in one gathered flush run:
// both fully dirty, consecutive in the same inode and on the same NSD,
// and uniform in hasBytes.
func joinsRun(prev, pg *page, bs units.Bytes) bool {
	return pg.dFrom == 0 && pg.dTo == bs && prev.dFrom == 0 && prev.dTo == bs &&
		pg.key.ino == prev.key.ino && pg.key.idx == prev.key.idx+1 &&
		pg.ref.NSD == prev.ref.NSD && pg.ref.Block == prev.ref.Block+1 &&
		pg.hasBytes == prev.hasBytes
}

// flushRun writes one run of dirty pages back to their NSD server as a
// single RPC covering [run[0].dFrom, (n-1)·bs + run[n-1].dTo): a run of
// one writes its page's dirty interval, and a longer run (fully-dirty
// pages, see flushDirty) one contiguous store transfer — stripe-aligned
// runs hit the RAID full-stripe path with no parity read. Each page takes
// its flushGen at issue; a page rewritten while the flush is in flight
// stays dirty and flushes again. A failed flush leaves every page dirty
// with a sticky error: it must not ack.
func (m *Mount) flushRun(run []*page) {
	bs := m.info.BlockSize
	n := len(run)
	first, from := run[0], run[0].dFrom
	ln := units.Bytes(n-1)*bs + run[n-1].dTo - from
	for _, pg := range run {
		pg.flushing = true
		pg.flushGen = pg.gen
	}
	m.st.Writebacks += uint64(n)
	if n > 1 {
		m.st.GatheredFlushes++
		if sw := m.stripeWOf(first.ref.NSD); sw > 0 && sw%bs == 0 {
			if swb := int64(sw / bs); first.ref.Block%swb == 0 {
				m.st.FullStripeWrites += uint64(int64(n) / swb)
			}
		}
	}
	var data []byte
	if first.hasBytes {
		data = m.arena.getScratch(int(ln))
		for i, pg := range run {
			copy(data[units.Bytes(i)*bs+pg.dFrom-from:], pg.data[pg.dFrom:pg.dTo])
		}
	}
	_, reg := m.obs()
	issued := m.c.sim.Now()
	// Each write-back is its own background "flush" op: the writer that
	// dirtied the pages has long since returned, and wb_wait/sync_wait
	// time is redistributed over the aggregate flush profile by critpath.
	rec := m.beginBgOp("flush")
	m.wgFl.Add(1)
	m.flInFlight++
	m.goIO(rec.ctx(), first.ref.NSD, ln, ioPayload{
		Cluster: m.c.cluster.Name, FS: m.fsName,
		NSD: first.ref.NSD, Block: first.ref.Block, Off: from, Len: ln, Count: int64(n),
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
		if len(run) > 1 {
			m.endBgOp(rec, trace.I("ino", run[0].key.ino), trace.I("bytes", int64(ln)), trace.I("blocks", int64(len(run))))
		} else {
			m.endBgOp(rec, trace.I("ino", run[0].key.ino), trace.I("bytes", int64(ln)))
		}
		m.st.Flushes++
		if reg != nil {
			reg.Histogram("cache.flush_ns").Observe(float64(m.c.sim.Now() - issued))
		}
		wrote := ln // per landed page: its dirty interval, or a whole block of a longer run
		if len(run) > 1 {
			wrote = m.info.BlockSize
		}
		landed, stale := false, false
		for _, pg := range run {
			switch {
			case pg.stale:
				// The block was freed (truncate/remove) mid-flush: the page
				// is dropped below, after the wake, never reinstated.
				m.pool.markClean(pg)
				stale = true
			case resp.Err != nil:
				landed = true
				pg.err = resp.Err
			default:
				landed = true
				pg.err = nil
				m.st.BytesWritten += wrote
				// Clean only if nothing touched the page while the flush
				// was in flight; an unchanged interval is not enough — the
				// content may have been rewritten in place.
				if pg.gen == pg.flushGen {
					m.pool.markClean(pg)
				}
			}
		}
		m.wgFl.Done()
		m.flSig.Fire()
		if stale {
			for _, pg := range run {
				// A woken proc may have started new I/O on a page and
				// discarded it since; that I/O's landing drops it.
				if pg.stale && !pg.flushing && !pg.fetching {
					m.pool.remove(pg)
				}
			}
		}
		if landed {
			m.pool.evict()
		}
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
// barrier: pages at or beyond the new size are discarded (their dirty
// data is semantically gone), dirty pages below it flush, and every
// flush of the inode still in flight lands before the blocks are freed,
// as Remove does — a flush landing after the free would write into
// whatever file the allocator hands those blocks next.
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
	f.m.flushRange(p, f.ino, 0, 1<<60)
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
