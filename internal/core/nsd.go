package core

import (
	"fmt"
	"sort"

	"gfs/internal/disk"
	"gfs/internal/metrics"
	"gfs/internal/netsim"
	"gfs/internal/raid"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// BlockStore is the media behind one NSD, as seen from its server node.
// Implementations account the simulated time of moving the bytes between
// the server and the media.
type BlockStore interface {
	// IO starts a contiguous transfer at the store and calls done when
	// it completes, with no process parked on the way. The continuation
	// contract: IO schedules exactly the events a process blocked for
	// the transfer would, in the same order, and calls done
	// synchronously at the point where that process would have resumed
	// — so moving a caller between the two forms changes no output.
	// ctx parents any trace events (nested RPCs) the store emits.
	IO(ctx trace.Ctx, op disk.Op, off, size units.Bytes, done func(error))
	// Capacity is the usable size of the store.
	Capacity() units.Bytes
}

// stripeWidther is implemented by stores sitting on a parity-striped
// array. AddNSD probes for it; clients align gathered flushes to the
// advertised width so they hit the RAID full-stripe write path.
type stripeWidther interface{ StripeWidth() units.Bytes }

// BusyTimer is implemented by stores that account cumulative service
// time normalized to their parallelism: a BusyTime delta over a
// virtual-time window is the store's utilization in [0,1] for that
// window. The timeline plane probes for it per NSD.
type BusyTimer interface{ BusyTime() sim.Time }

// RAIDStore is a direct-attached RAID set (no fabric hop).
type RAIDStore struct{ Set *raid.Set }

// IO implements BlockStore.
func (s RAIDStore) IO(_ trace.Ctx, op disk.Op, off, size units.Bytes, done func(error)) {
	s.Set.IO(op, off, size, func() { done(nil) })
}

// Capacity implements BlockStore.
func (s RAIDStore) Capacity() units.Bytes { return s.Set.Capacity() }

// StripeWidth implements stripeWidther.
func (s RAIDStore) StripeWidth() units.Bytes { return s.Set.StripeWidth() }

// BusyTime implements BusyTimer: mean member-spindle busy time.
func (s RAIDStore) BusyTime() sim.Time { return s.Set.BusyTime() }

// SANStore is a LUN on a dual-controller array reached across the FC
// fabric; the bytes cross HBA and controller links.
type SANStore struct {
	Array     *san.Array
	LUN       int
	Initiator *netsim.Endpoint // the NSD server's fabric endpoint
}

// IO implements BlockStore.
func (s SANStore) IO(ctx trace.Ctx, op disk.Op, off, size units.Bytes, done func(error)) {
	if op == disk.Read {
		s.Array.GoReadLUN(s.Initiator, ctx, s.LUN, off, size, done)
	} else {
		s.Array.GoWriteLUN(s.Initiator, ctx, s.LUN, off, size, done)
	}
}

// Capacity implements BlockStore.
func (s SANStore) Capacity() units.Bytes { return s.Array.Sets[s.LUN].Capacity() }

// StripeWidth implements stripeWidther.
func (s SANStore) StripeWidth() units.Bytes { return s.Array.Sets[s.LUN].StripeWidth() }

// BusyTime implements BusyTimer: mean spindle busy time of the LUN's
// RAID set (fabric time excluded — links have their own series).
func (s SANStore) BusyTime() sim.Time { return s.Array.Sets[s.LUN].BusyTime() }

// RateStore is an idealized store with a fixed service rate and no seeks —
// useful for experiments where the paper's bottleneck was strictly the
// network (the SC'03 demonstration).
type RateStore struct {
	sim     *sim.Sim
	res     *sim.Resource
	rate    units.BytesPerSec
	cap     units.Bytes
	streams int
	busy    sim.Time  // total stream-service time across all streams
	free    []*rateIO // recycled transfer records
}

// rateIO is one RateStore transfer: a stream grant, then a timer for
// its service time.
type rateIO struct {
	s                   *RateStore
	d                   sim.Time
	done                func(error)
	grantedFn, finishFn func()
}

// NewRateStore builds a rate-limited store with the given parallelism.
func NewRateStore(s *sim.Sim, name string, rate units.BytesPerSec, capacity units.Bytes, streams int) *RateStore {
	if streams < 1 {
		streams = 1
	}
	return &RateStore{sim: s, res: sim.NewResource(s, name, streams), rate: rate, cap: capacity, streams: streams}
}

// IO implements BlockStore: wait FIFO for a stream, hold it for the
// transfer's service time, release it.
func (s *RateStore) IO(_ trace.Ctx, op disk.Op, off, size units.Bytes, done func(error)) {
	var x *rateIO
	if n := len(s.free); n > 0 {
		x = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		x = &rateIO{s: s}
		x.grantedFn, x.finishFn = x.granted, x.finish
	}
	x.d, x.done = sim.FromSeconds(float64(size)/float64(s.rate)), done
	s.res.AcquireFunc(1, x.grantedFn)
}

// granted starts the service-time timer once a stream is held.
func (x *rateIO) granted() { x.s.sim.Post(sim.KindTimer, x.d, x.finishFn) }

// finish releases the stream, handing it to the next waiter, then
// completes the transfer.
func (x *rateIO) finish() {
	s, done := x.s, x.done
	s.busy += x.d
	s.res.Release(1)
	x.done = nil
	s.free = append(s.free, x)
	done(nil)
}

// Capacity implements BlockStore.
func (s *RateStore) Capacity() units.Bytes { return s.cap }

// BusyTime implements BusyTimer: aggregate service time divided by the
// stream count, so a delta over a window is utilization of the store's
// full parallel capacity.
func (s *RateStore) BusyTime() sim.Time { return s.busy / sim.Time(s.streams) }

// NSD is one Network Shared Disk: a block store plus the servers that
// export it (a primary and an optional backup, as GPFS NSDs carry) and
// the block-content shadow for byte-exact tests.
type NSD struct {
	Name    string
	Store   BlockStore
	Primary *NSDServer
	Backup  *NSDServer // optional; clients fail over when Primary is down

	blockSize units.Bytes
	stripeW   units.Bytes // RAID stripe width of the store (0 = none)
	alloc     *Allocator
	content   map[int64][]byte // sparse real contents, keyed by block slot
	elev      *nsdElevator     // non-nil when elevator scheduling is on
}

// Blocks returns the number of block slots on the NSD.
func (n *NSD) Blocks() int64 { return n.alloc.Total() }

// QueueDepth returns the requests waiting in the NSD's elevator queue
// (zero when elevator scheduling is off or the queue is drained).
func (n *NSD) QueueDepth() int {
	if n.elev == nil {
		return 0
	}
	return len(n.elev.q)
}

// FreeBlocks returns unallocated slots.
func (n *NSD) FreeBlocks() int64 { return n.alloc.Free() }

// byteOff converts a block slot + offset to a store byte offset.
func (n *NSD) byteOff(block int64, off units.Bytes) units.Bytes {
	return units.Bytes(block)*n.blockSize + off
}

// readContent copies stored bytes for [off, off+ln) counted from the
// start of slot block; a range past the block's end runs on into the
// following slots. Absent content reads as zeros.
func (n *NSD) readContent(block int64, off, ln units.Bytes) []byte {
	out := make([]byte, ln)
	for done := units.Bytes(0); done < ln; {
		b, o := block+int64((off+done)/n.blockSize), (off+done)%n.blockSize
		k := min(n.blockSize-o, ln-done)
		if c, ok := n.content[b]; ok {
			copy(out[done:done+k], c[o:])
		}
		done += k
	}
	return out
}

// writeContent stores real bytes at off counted from the start of slot
// block, running on into the following slots like readContent. A slot
// the allocator holds free takes no bytes: a flush still in flight when
// a truncate or remove freed its blocks lands there, and the slot's next
// owner must read zeros where it never wrote.
func (n *NSD) writeContent(block int64, off units.Bytes, data []byte) {
	for len(data) > 0 {
		b, o := block+int64(off/n.blockSize), off%n.blockSize
		k := min(n.blockSize-o, units.Bytes(len(data)))
		if n.alloc.IsAllocated(b) {
			c, ok := n.content[b]
			if !ok {
				c = make([]byte, n.blockSize)
				n.content[b] = c
			}
			copy(c[o:], data[:k])
		}
		data = data[k:]
		off += k
	}
}

// NSDServer is an I/O node exporting NSDs to clients. One server may
// export several NSDs (the production machines served multiple DS4100
// LUNs each).
type NSDServer struct {
	fs   *FileSystem
	Name string
	EP   *netsim.Endpoint

	nsds []*NSD
	down bool
	free []*blockIO // recycled request records

	st ServerStats
}

// Fail takes the server down: subsequent requests are refused.
func (s *NSDServer) Fail() { s.down = true }

// Recover brings the server back.
func (s *NSDServer) Recover() { s.down = false }

// Down reports the failure state.
func (s *NSDServer) Down() bool { return s.down }

// BytesServed returns (reads, writes) moved through this server.
func (s *NSDServer) BytesServed() (units.Bytes, units.Bytes) {
	return s.st.BytesRead, s.st.BytesWritten
}

// ioPayload is the nsd.io RPC body. Count > 1 names a batched transfer:
// Count consecutive block slots starting at Block, with Off == 0 and
// Len == Count * blockSize — one RPC, one trace span, one (contiguous)
// disk submission.
type ioPayload struct {
	Cluster string // requesting cluster, for access enforcement
	FS      string
	NSD     int
	Block   int64
	Off     units.Bytes
	Len     units.Bytes
	Count   int64 // block slots covered; 0 or 1 is a single-block transfer
	Op      disk.Op
	Data    []byte // optional real bytes on writes
	Verify  bool   // on reads: return real bytes
}

const nsdService = "nsd.io"

// kindServe labels the service-start events of nsd.io requests: a
// server serves them as continuations, not processes.
var kindServe = sim.RegisterEventKind("nsd.serve")

// blockIO is one nsd.io request in service: what its store completion
// needs to answer it. Servers recycle them.
type blockIO struct {
	s      *NSDServer
	req    *netsim.Request
	reply  func(netsim.Response)
	n      *NSD
	cnt    int64
	issued sim.Time
	tr     *trace.Tracer     // tracer at service start, nil when off
	reg    *metrics.Registry // registry at service start, nil when off
	sid    int64             // the service span's ID (0 when not tracing)
	doneFn func(error)
}

// serve checks one nsd.io request and starts its store transfer; the
// transfer's completion answers it.
func (s *NSDServer) serve(req *netsim.Request, reply func(netsim.Response)) {
	io, n, cnt, err := s.check(req)
	if err != nil {
		reply(netsim.Response{Err: err})
		return
	}
	var x *blockIO
	if k := len(s.free); k > 0 {
		x = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		x = &blockIO{s: s}
		x.doneFn = x.done
	}
	x.req, x.reply, x.n, x.cnt = req, reply, n, cnt
	x.tr, x.reg, x.issued = s.fs.Sim.Tracer(), s.fs.cluster.Net.Metrics, s.fs.Sim.Now()
	// The service span parents everything the store does on our behalf —
	// for SAN-backed NSDs that includes a nested RPC to the array — so
	// fabric time separates from disk time on the critical path.
	ctx := req.Ctx
	if x.tr != nil {
		x.sid = x.tr.NewSpanID()
		ctx = trace.Ctx{Op: req.Ctx.Op, Parent: x.sid}
	}
	if n.elev != nil {
		n.elev.submit(ctx, io.Op, n.byteOff(io.Block, io.Off), io.Len, x.doneFn)
	} else {
		n.Store.IO(ctx, io.Op, n.byteOff(io.Block, io.Off), io.Len, x.doneFn)
	}
}

// check validates an nsd.io request and returns its payload, its NSD
// and the number of block slots it covers.
func (s *NSDServer) check(req *netsim.Request) (*ioPayload, *NSD, int64, error) {
	io, ok := req.Payload.(*ioPayload)
	if !ok {
		return nil, nil, 0, fmt.Errorf("core: bad nsd.io payload %T", req.Payload)
	}
	if s.down {
		return nil, nil, 0, fmt.Errorf("core: %s: %w", s.Name, ErrServerDown)
	}
	if io.FS != s.fs.Name {
		return nil, nil, 0, fmt.Errorf("core: server exports %s, not %s", s.fs.Name, io.FS)
	}
	if err := s.fs.checkClusterAccess(io.Cluster, io.Op); err != nil {
		return nil, nil, 0, err
	}
	if io.NSD < 0 || io.NSD >= len(s.fs.nsds) {
		return nil, nil, 0, fmt.Errorf("core: NSD %d: %w", io.NSD, ErrNoSuchDevice)
	}
	n := s.fs.nsds[io.NSD]
	if n.Primary != s && n.Backup != s {
		return nil, nil, 0, fmt.Errorf("core: NSD %s not served by %s: %w", n.Name, s.Name, ErrNoSuchDevice)
	}
	cnt := io.Count
	if cnt < 1 {
		cnt = 1
	}
	if cnt > 1 {
		if io.Off != 0 || io.Len != n.blockSize*units.Bytes(cnt) {
			return nil, nil, 0, fmt.Errorf("core: bad batched I/O geometry (off %d len %d count %d)", io.Off, io.Len, cnt)
		}
		if io.Block < 0 || io.Block+cnt > n.alloc.Total() {
			return nil, nil, 0, fmt.Errorf("core: batched I/O past NSD end (block %d count %d of %d)", io.Block, cnt, n.alloc.Total())
		}
	} else if io.Off+io.Len > n.blockSize {
		return nil, nil, 0, fmt.Errorf("core: I/O past block end (%d+%d > %d)", io.Off, io.Len, n.blockSize)
	}
	if io.Data != nil && units.Bytes(len(io.Data)) != io.Len {
		// writeContent runs on past the block end, so the data must be
		// exactly the range the geometry checks passed.
		return nil, nil, 0, fmt.Errorf("core: write data %d != len %d", len(io.Data), io.Len)
	}
	return io, n, cnt, nil
}

// done answers the request once the store has moved its bytes.
func (x *blockIO) done(err error) {
	s, req, reply, n, cnt := x.s, x.req, x.reply, x.n, x.cnt
	tr, reg, issued, sid := x.tr, x.reg, x.issued, x.sid
	*x = blockIO{s: s, doneFn: x.doneFn}
	s.free = append(s.free, x)
	if err != nil {
		reply(netsim.Response{Err: err})
		return
	}
	io := req.Payload.(*ioPayload)
	if tr != nil || reg != nil {
		s.recordIO(tr, reg, n, io.Op, io.Len, cnt, issued, req.Ctx, sid)
	}
	if cnt > 1 {
		s.st.BatchedOps++
		s.st.BatchedBlocks += uint64(cnt)
	}
	if io.Op == disk.Read {
		s.st.Reads++
		s.st.BytesRead += io.Len
		var data []byte
		if io.Verify {
			data = n.readContent(io.Block, io.Off, io.Len)
		}
		reply(netsim.Response{Size: io.Len, Payload: data})
		return
	}
	s.st.Writes++
	s.st.BytesWritten += io.Len
	if io.Data != nil {
		n.writeContent(io.Block, io.Off, io.Data)
	}
	reply(netsim.Response{Size: 64})
}

// recordIO emits the disk-service span and registry samples for one NSD
// transfer. Kept out of serve so the disabled path pays only nil checks.
func (s *NSDServer) recordIO(tr *trace.Tracer, reg *metrics.Registry, n *NSD, op disk.Op, ln units.Bytes, cnt int64, issued sim.Time, ctx trace.Ctx, sid int64) {
	now := s.fs.Sim.Now()
	name := "read"
	if op == disk.Write {
		name = "write"
	}
	if tr != nil {
		if cnt > 1 {
			tr.SpanCtx(ctx, sid, "nsd", name, s.Name, int64(issued), int64(now),
				trace.S("nsd", n.Name), trace.I("bytes", int64(ln)), trace.I("blocks", cnt))
		} else {
			tr.SpanCtx(ctx, sid, "nsd", name, s.Name, int64(issued), int64(now),
				trace.S("nsd", n.Name), trace.I("bytes", int64(ln)))
		}
	}
	if reg != nil {
		reg.Histogram("nsd.service_ns").Observe(float64(now - issued))
	}
}

// nsdElevator is the per-NSD request scheduler (mmchconfig-style
// nsdMultiQueue, reduced to its essence): while the store is busy, newly
// arriving block I/O queues; each dispatch round sorts the queue by store
// offset and merges contiguous same-direction requests into single
// submissions. Under a purely concurrent load the elevator degenerates to
// pass-through rounds of one request each; under a sequential multi-block
// load it turns N adjacent RPCs into one long store transfer.
//
// The elevator runs on events alone: a round starts from an nsd.elev
// event, each merged submission starts from one of its own, and the last
// submission of a round to complete starts the next round at once.
type nsdElevator struct {
	fs      *FileSystem
	nsd     *NSD
	q       []*elevReq
	seq     int64 // arrival order, the sort tie-breaker
	busy    bool  // a round is queued or in flight
	pending int   // the round's submissions still in flight
	roundFn func()
}

// newElevator returns an idle elevator for n.
func newElevator(fs *FileSystem, n *NSD) *nsdElevator {
	e := &nsdElevator{fs: fs, nsd: n}
	e.roundFn = e.round
	return e
}

// kindElev labels the elevator's round and submission start events.
var kindElev = sim.RegisterEventKind("nsd.elev")

// elevReq is one queued block I/O request and its continuation.
type elevReq struct {
	op   disk.Op
	off  units.Bytes
	ln   units.Bytes
	seq  int64
	ctx  trace.Ctx
	enq  sim.Time // enqueue time, for the elev_wait span
	done func(error)
}

// submit queues one request; done runs when the store I/O carrying it
// completes. The first request into an idle elevator posts a round;
// requests arriving while a round is in flight form the next round.
func (e *nsdElevator) submit(ctx trace.Ctx, op disk.Op, off, ln units.Bytes, done func(error)) {
	e.q = append(e.q, &elevReq{op: op, off: off, ln: ln, seq: e.seq, ctx: ctx, enq: e.fs.Sim.Now(), done: done})
	e.seq++
	if !e.busy {
		e.busy = true
		e.fs.Sim.Post(kindElev, 0, e.roundFn)
	}
}

// elevMerged is one merged store submission and the requests it carries.
type elevMerged struct {
	e       *nsdElevator
	op      disk.Op
	off, ln units.Bytes
	reqs    []*elevReq
	started sim.Time
}

// round dispatches the queue, or idles the elevator when it is empty.
// Merged submissions within a round run in parallel, each from its own
// start event (posted in sorted order, keeping event timing
// deterministic), so the elevator never serializes I/O the store itself
// would have overlapped.
func (e *nsdElevator) round() {
	if len(e.q) == 0 {
		e.busy = false
		return
	}
	batch := e.q
	e.q = nil
	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].off != batch[j].off {
			return batch[i].off < batch[j].off
		}
		return batch[i].seq < batch[j].seq
	})
	var runs []*elevMerged
	for _, r := range batch {
		if n := len(runs); n > 0 {
			last := runs[n-1]
			if last.op == r.op && last.off+last.ln == r.off {
				last.ln += r.ln
				last.reqs = append(last.reqs, r)
				continue
			}
		}
		runs = append(runs, &elevMerged{e: e, op: r.op, off: r.off, ln: r.ln, reqs: []*elevReq{r}})
	}
	e.fs.st.ElevRounds++
	e.fs.st.ElevMerged += uint64(len(batch) - len(runs))
	e.pending = len(runs)
	for _, m := range runs {
		e.fs.Sim.Post(kindElev, 0, m.start)
	}
}

// start submits the merged transfer to the store.
func (m *elevMerged) start() {
	m.started = m.e.fs.Sim.Now()
	m.e.nsd.Store.IO(trace.Ctx{}, m.op, m.off, m.ln, m.finish)
}

// finish completes every request the transfer carried, in sorted order;
// the round's last transfer to finish starts the next round.
func (m *elevMerged) finish(err error) {
	e := m.e
	tr := e.fs.Sim.Tracer()
	for _, r := range m.reqs {
		if tr != nil && m.started > r.enq {
			tr.SpanCtx(r.ctx, 0, "nsd", "elev_wait", e.nsd.Name,
				int64(r.enq), int64(m.started))
		}
		r.done(err)
	}
	e.pending--
	if e.pending == 0 {
		e.round()
	}
}
