package netsim

import (
	"fmt"
	"math"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

const rateEps = 0.5 // bytes; slop for float remaining-byte arithmetic

// completionHorizon is the farthest ahead a completion event is armed, in
// nanoseconds (~11.6 sim-days). A head message that won't finish within it
// — only possible at a degenerate near-zero rate — leaves the conn parked
// until a solve re-rates it, rather than planting an event whose delay
// overflows sim.Time.
const completionHorizon = 1e15

// message is one byte-counted transfer queued on a conn; the bytes of
// the head message still undelivered live on the conn's flow
// (flow.headLeft). Messages are recycled through Network.msgFree once
// delivered.
type message struct {
	size        float64
	enq         sim.Time // when Send queued it
	started     sim.Time // when it reached the head of the queue
	ctx         trace.Ctx
	onDelivered func()
}

// Conn is a long-lived, directed transport connection (think one TCP
// connection). Messages sent on a conn are delivered FIFO; while the conn
// has queued bytes it competes for link bandwidth under max-min fairness,
// capped at cwnd/RTT.
//
// A conn keeps only what must outlive an idle gap: its identity and path,
// the congestion window and idle clock that the slow-start restart reads,
// and its byte counters — 128 bytes. Everything that means something only
// while bytes flow (the message queue, the allocated rate and solver
// scratch, the link slots, the completion and window timers) lives in a
// flow record that the conn holds from activation to deactivation. A
// farm whose clients keep conns to every server, few of them busy at
// once, pays for transfer state per busy conn, not per conn.
type Conn struct {
	id       int
	src, dst *Node
	path     []*Link
	oneWay   sim.Time // path propagation delay; the RTT is twice it
	pathCap  float64  // capacity of the slowest link on path (+Inf if none)
	tcp      TCPConfig

	cwnd      float64 // bytes
	idleSince sim.Time
	bytesSent units.Bytes
	msgsSent  uint64

	f *flow // transfer state while active; nil while idle
}

// flow is an active conn's transfer state. Flow records come from a LIFO
// free list on the Network, carved in batches and never moved, so the
// events they own stay put while queued; a conn takes one on activation
// and returns it, every event canceled, on deactivation. The solver's
// loops read flows only: a flow carries its conn's path and id.
type flow struct {
	// The fields a solve reads for every flow in its region come first
	// and fill 64 bytes.

	// mark == Network.epoch while the flow is in the current solve's
	// region and not yet assigned a rate.
	mark        uint32
	rate        float64 // bytes/sec currently allocated
	prevRate    float64 // allocation scratch
	headLeft    float64 // undelivered bytes of the head message
	lastAdvance sim.Time
	path        []*Link // the conn's path

	rateCap float64 // cwnd/RTT, cached; set on activate and bump
	id      int     // the conn's id, for capLess
	c       *Conn   // nil while the record is free
	net     *Network

	// queue[head:] are the undelivered messages, FIFO. Delivery advances
	// head instead of reslicing, and a drained queue rewinds to the start
	// of its backing array, which the record keeps from conn to conn.
	queue  []*message
	head   int
	actIdx int // index in Network.activeList

	// linkPos[i] is this flow's slot in path[i].conns, so deactivation is
	// O(path) with no map or search.
	linkPos []int32

	// completionEvt/bumpEvt are caller-owned reusable events (sim.Arm)
	// whose callbacks are bound once per record: the hottest timers in
	// the simulator re-arm with zero allocation.
	completionEvt sim.Event
	completionFn  func()
	bumpEvt       sim.Event
	bumpFn        func()
}

// Dial opens a connection from src to dst with the network's default TCP
// config.
func (nw *Network) Dial(src, dst *Node) *Conn {
	return nw.DialTCP(src, dst, nw.DefaultTCP)
}

// DialTCP opens a connection with an explicit TCP config. A dial costs
// the conn and its path: transfer state waits for the first send.
func (nw *Network) DialTCP(src, dst *Node, tcp TCPConfig) *Conn {
	c := &Conn{
		id:  nw.dialed,
		src: src, dst: dst,
		tcp:       tcp,
		idleSince: nw.Sim.Now(),
	}
	path, err := nw.pathFor(src, dst, c.id)
	if err != nil {
		panic(err)
	}
	c.path = path
	c.pathCap = math.Inf(1)
	for _, l := range path {
		c.oneWay += l.delay
		c.pathCap = math.Min(c.pathCap, l.cap)
	}
	c.cwnd = c.initialWindow()
	nw.dialed++
	return c
}

func (c *Conn) initialWindow() float64 {
	if c.tcp.InitWindow > 0 && c.tcp.MaxWindow > 0 {
		return float64(c.tcp.InitWindow)
	}
	return float64(c.tcp.MaxWindow)
}

// Src returns the sending node.
func (c *Conn) Src() *Node { return c.src }

// Dst returns the receiving node.
func (c *Conn) Dst() *Node { return c.dst }

// RTT returns the round-trip propagation delay of the conn's path.
func (c *Conn) RTT() sim.Time { return 2 * c.oneWay }

// Path returns the links the conn crosses.
func (c *Conn) Path() []*Link { return c.path }

// BytesSent returns the cumulative payload bytes delivered.
func (c *Conn) BytesSent() units.Bytes { return c.bytesSent }

// Rate returns the currently allocated rate in bytes/sec; an idle conn
// has none.
func (c *Conn) Rate() units.BytesPerSec {
	if c.f == nil {
		return 0
	}
	return units.BytesPerSec(c.f.rate)
}

// windowCap returns the window-imposed rate cap (bytes/sec).
func (c *Conn) windowCap() float64 {
	rtt := c.RTT()
	if c.tcp.MaxWindow <= 0 || rtt <= 0 {
		return math.Inf(1)
	}
	return c.cwnd / rtt.Seconds()
}

// Queued returns the number of undelivered messages.
func (c *Conn) Queued() int {
	if c.f == nil {
		return 0
	}
	return c.f.queued()
}

func (f *flow) queued() int { return len(f.queue) - f.head }

// SendCtx queues size bytes for delivery; onDelivered (optional) fires at
// the virtual instant the last byte arrives at the destination. The flow
// span this message emits on delivery is attributed to ctx (the zero Ctx
// for none). Must be called from event context (inside an event callback
// or a process).
func (c *Conn) SendCtx(ctx trace.Ctx, size units.Bytes, onDelivered func()) {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", size))
	}
	nw := c.src.net
	if len(c.path) == 0 {
		// Same-node loopback: deliver immediately.
		c.bytesSent += size
		c.msgsSent++
		if onDelivered != nil {
			nw.Sim.Post(kindDeliver, 0, onDelivered)
		}
		return
	}
	m := nw.newMessage()
	m.size = float64(size)
	m.enq = nw.Sim.Now()
	m.ctx = ctx
	m.onDelivered = onDelivered
	if size == 0 {
		m.size = 1 // headers are never free
	}
	if f := c.f; f != nil {
		// A send on an already-active conn changes neither link
		// membership nor any window cap: every allocated rate stays valid
		// verbatim, so no links are dirtied and no reallocation runs.
		f.enqueue(m)
		return
	}
	f := nw.newFlow(c)
	f.queue = append(f.queue, m)
	c.activate(f)
	nw.recompute()
}

// enqueue appends m to the flow's queue.
func (f *flow) enqueue(m *message) {
	if f.head > 0 && len(f.queue) == cap(f.queue) {
		// Full with delivered slots at the front: slide the live
		// messages down instead of growing the array.
		n := copy(f.queue, f.queue[f.head:])
		clear(f.queue[n:])
		f.queue, f.head = f.queue[:n], 0
	}
	f.queue = append(f.queue, m)
}

// activate attaches f, holding c's first queued message, and puts it on
// its links.
func (c *Conn) activate(f *flow) {
	nw := f.net
	now := nw.Sim.Now()
	// Slow-start restart after a long idle period (RFC 2861).
	restart := c.tcp.RestartIdle
	if restart <= 0 {
		restart = defaultRestartIdle
	}
	if now-c.idleSince > restart && c.oneWay > 0 {
		c.cwnd = c.initialWindow()
	}
	c.f = f
	f.rateCap = c.windowCap()
	nw.capIndexAdd(f)
	f.lastAdvance = now
	f.startHead(now)
	for i, l := range f.path {
		f.linkPos[i] = int32(len(l.conns))
		l.conns = append(l.conns, linkSlot{f: f, pi: int32(i)})
		if len(l.conns) == 1 {
			l.busyIdx = len(nw.busyLinks)
			nw.busyLinks = append(nw.busyLinks, l)
		}
	}
	nw.rerate(f)
	f.actIdx = len(nw.activeList)
	nw.activeList = append(nw.activeList, f)
	f.scheduleBump()
}

// deactivate takes the drained flow off its links, detaches it from its
// conn and returns it to the pool.
func (f *flow) deactivate() {
	nw := f.net
	c := f.c
	nw.capIndexRemove(f)
	c.idleSince = nw.Sim.Now()
	for i, l := range f.path {
		nw.linkChanged(l)
		pos := f.linkPos[i]
		last := len(l.conns) - 1
		moved := l.conns[last]
		l.conns[pos] = moved
		moved.f.linkPos[moved.pi] = pos
		l.conns[last] = linkSlot{}
		l.conns = l.conns[:last]
		if last == 0 && l.busyIdx >= 0 {
			// Swap-remove from the busy list.
			lastL := nw.busyLinks[len(nw.busyLinks)-1]
			nw.busyLinks[l.busyIdx] = lastL
			lastL.busyIdx = l.busyIdx
			nw.busyLinks = nw.busyLinks[:len(nw.busyLinks)-1]
			l.busyIdx = -1
		}
	}
	// Swap-remove from the active list.
	lastF := nw.activeList[len(nw.activeList)-1]
	nw.activeList[f.actIdx] = lastF
	lastF.actIdx = f.actIdx
	nw.activeList[len(nw.activeList)-1] = nil
	nw.activeList = nw.activeList[:len(nw.activeList)-1]
	if f.completionEvt.Queued() {
		f.completionEvt.Cancel()
	}
	if f.bumpEvt.Queued() {
		f.bumpEvt.Cancel()
	}
	c.f = nil
	nw.freeFlow(f)
}

// scheduleBump arranges the next slow-start window doubling.
func (f *flow) scheduleBump() {
	if f.bumpEvt.Queued() {
		f.bumpEvt.Cancel()
	}
	c := f.c
	if c.tcp.MaxWindow <= 0 || c.oneWay <= 0 || c.cwnd >= float64(c.tcp.MaxWindow) {
		return
	}
	f.net.Sim.Arm(&f.bumpEvt, kindBump, c.RTT(), f.bumpFn)
}

// bump doubles the congestion window — a changed cap invalidates the
// allocation of every flow sharing a link with this one, so its path
// links join the dirty frontier.
func (f *flow) bump() {
	c := f.c
	if c == nil {
		return
	}
	nw := f.net
	// The cap binds only when the last solve allocated exactly at it
	// (assignRate stores rateCap verbatim, so this equality is exact).
	// Raising a cap the solver never consulted cannot move the max-min
	// fixed point: every allocated rate stays valid, so a link-limited
	// flow's window doubling dirties nothing.
	capped := f.rate >= f.rateCap
	nw.capIndexRemove(f)
	c.cwnd *= 2
	if c.cwnd > float64(c.tcp.MaxWindow) {
		c.cwnd = float64(c.tcp.MaxWindow)
	}
	f.rateCap = c.windowCap()
	nw.capIndexAdd(f)
	f.scheduleBump()
	if !capped {
		return
	}
	nw.rerate(f)
	nw.recompute()
}

// advance credits progress to the head messages up to now, delivering any
// that finish. Delivering the last one deactivates the flow, which
// leaves f.c nil.
func (f *flow) advance(now sim.Time) {
	if f.c == nil {
		return
	}
	if now == f.lastAdvance || f.rate == 0 {
		// Nothing to credit: repeat solves at one instant (a draining
		// frontier) advance each flow once, not once per iteration.
		f.lastAdvance = now
		return
	}
	credit := f.rate * (now - f.lastAdvance).Seconds()
	f.lastAdvance = now
	for f.c != nil { // an active flow's queue is never empty
		if f.headLeft > credit+rateEps {
			f.headLeft -= credit
			return
		}
		credit -= f.headLeft
		f.headLeft = 0
		f.deliverHead(now)
	}
}

// startHead puts the message at the head of the queue on the wire.
func (f *flow) startHead(now sim.Time) {
	m := f.queue[f.head]
	m.started = now
	f.headLeft = m.size
}

func (f *flow) deliverHead(now sim.Time) {
	nw := f.net
	c := f.c
	head := f.queue[f.head]
	f.queue[f.head] = nil
	f.head++
	if f.head == len(f.queue) {
		f.queue, f.head = f.queue[:0], 0
	}
	// Any pending completion event refers to the delivered message; drop
	// it so a skipped reschedule can never fire it for the next one.
	if f.completionEvt.Queued() {
		f.completionEvt.Cancel()
	}
	c.bytesSent += units.Bytes(head.size)
	c.msgsSent++
	for _, l := range f.path {
		l.delivered += units.Bytes(head.size)
		if l.monitor != nil {
			l.monitor.RecordSpread(units.Bytes(head.size), head.started, now)
		}
	}
	if tr := nw.Sim.Tracer(); tr != nil {
		// The span covers the message's whole life on the wire:
		// [enqueue, last byte at destination] = queue wait (behind
		// earlier messages on this conn) + transmission at the allocated
		// rate + one-way propagation. The sub-phase durations ride along
		// so critical-path attribution can split serialization from
		// speed-of-light time.
		tr.SpanCtx(head.ctx, 0, "flow", "xfer", c.src.name+"->"+c.dst.name,
			int64(head.enq), int64(now+c.oneWay),
			trace.I("bytes", int64(head.size)),
			trace.I("queued", int64(f.queued())),
			trace.I("queue_ns", int64(head.started-head.enq)),
			trace.I("xmit_ns", int64(now-head.started)),
			trace.I("prop_ns", int64(c.oneWay)))
	}
	nw.st.Msgs++
	nw.st.Bytes += uint64(head.size)
	if reg := nw.Metrics; reg != nil {
		reg.Histogram("flow.xfer_ns").Observe(float64(now - head.started))
	}
	if head.onDelivered != nil {
		cb := head.onDelivered
		nw.Sim.Post(kindDeliver, c.oneWay, cb)
	}
	nw.freeMessage(head)
	if len(f.queue) == 0 {
		f.deactivate()
	} else {
		f.startHead(now)
	}
}

// scheduleCompletion arranges the event at which the head message finishes
// at the current rate.
func (f *flow) scheduleCompletion() {
	if f.c == nil || f.rate <= 0 {
		if f.completionEvt.Queued() {
			f.completionEvt.Cancel()
		}
		return
	}
	// A rate that is float dust (the residue of residual subtraction,
	// ~2^-24 B/s) would put the completion ~1e23 ns out — past int64,
	// where the conversion wraps and the dt<1 clamp would re-arm it every
	// nanosecond instead. Park the flow: don't arm at all beyond the
	// horizon. Any future solve that gives it a real rate reschedules it.
	ns := f.headLeft / f.rate * 1e9
	if ns > completionHorizon {
		if f.completionEvt.Queued() {
			f.completionEvt.Cancel()
		}
		return
	}
	// Round the completion instant up to a whole nanosecond so a
	// sub-epsilon float remainder can never re-arm a zero-delay event in
	// an endless same-timestamp loop. A still-queued completion moves in
	// place.
	dt := sim.Time(math.Ceil(ns))
	if dt < 1 {
		dt = 1
	}
	f.net.Sim.Rearm(&f.completionEvt, kindCompletion, dt, f.completionFn)
}

// onCompletion is the completion event: the head message is due.
func (f *flow) onCompletion() {
	nw := f.net
	f.advance(nw.Sim.Now())
	if f.c != nil {
		f.scheduleCompletion()
	}
	nw.recompute() // no-op unless the delivery dirtied links
}

// flowBatch is how many flow records newFlow carves at once.
const flowBatch = 64

// newFlow takes a free flow record for c, carving a batch when none is
// free. A batch is one allocation, plus the two callbacks each record
// binds for good.
func (nw *Network) newFlow(c *Conn) *flow {
	if len(nw.flowFree) == 0 {
		batch := make([]flow, flowBatch)
		for i := range batch {
			f := &batch[len(batch)-1-i]
			f.net = nw
			f.completionFn, f.bumpFn = f.onCompletion, f.bump
			nw.flowFree = append(nw.flowFree, f)
		}
	}
	n := len(nw.flowFree)
	f := nw.flowFree[n-1]
	nw.flowFree[n-1] = nil
	nw.flowFree = nw.flowFree[:n-1]
	f.c, f.id, f.path = c, c.id, c.path
	if cap(f.linkPos) < len(c.path) {
		f.linkPos = make([]int32, len(c.path))
	}
	f.linkPos = f.linkPos[:len(c.path)]
	return f
}

// freeFlow resets a detached flow record, keeping its bound callbacks and
// the backing arrays of its queue and link slots, and returns it to the
// pool. Its events were canceled by deactivate.
func (nw *Network) freeFlow(f *flow) {
	*f = flow{
		net:          nw,
		queue:        f.queue[:0],
		linkPos:      f.linkPos[:0],
		completionFn: f.completionFn,
		bumpFn:       f.bumpFn,
	}
	nw.flowFree = append(nw.flowFree, f)
}

// newMessage draws a message from the free pool.
func (nw *Network) newMessage() *message {
	if n := len(nw.msgFree); n > 0 {
		m := nw.msgFree[n-1]
		nw.msgFree[n-1] = nil
		nw.msgFree = nw.msgFree[:n-1]
		return m
	}
	return &message{}
}

// freeMessage recycles a delivered message.
func (nw *Network) freeMessage(m *message) {
	*m = message{}
	nw.msgFree = append(nw.msgFree, m)
}

// linkChanged adds a link to the dirty frontier: its active-conn
// membership, a crossing conn's window cap, or its up/down state changed,
// so rates in its connected component must be re-solved. Links already
// marked into the component being advanced by the in-progress solve are
// not re-queued — the solve reads membership live and will allocate them
// this pass.
func (nw *Network) linkChanged(l *Link) {
	if l.dirty {
		return
	}
	if nw.inSolve && l.mark == nw.epoch {
		return
	}
	l.dirty = true
	nw.dirtyLinks = append(nw.dirtyLinks, l)
}

// rerate asks for a new rate for f after it joined its links or its
// window cap rose: every link it crosses joins the dirty frontier.
func (nw *Network) rerate(f *flow) {
	for _, l := range f.path {
		nw.linkChanged(l)
	}
}

// recompute requests a rate reallocation over the dirty frontier.
// Requests are coalesced into a single event (subject to
// MinRecomputeInterval) so a burst of changes at one instant pays for one
// allocation pass; when no links are dirty the request is free.
func (nw *Network) recompute() {
	if len(nw.dirtyLinks) == 0 || nw.inRecompute || nw.recomputeScheduled {
		return
	}
	nw.recomputeScheduled = true
	var delay sim.Time
	iv := nw.MinRecomputeInterval
	if s := sim.Time(nw.lastSolveConns) * nw.RecomputePerConn; s > iv {
		iv = s
	}
	if iv > 0 {
		if next := nw.lastRecompute + iv; next > nw.Sim.Now() {
			delay = next - nw.Sim.Now()
		}
	}
	nw.Sim.Post(kindRecompute, delay, nw.recomputeFn)
}

// doRecompute re-solves dirty components until the frontier drains
// (advancing a component can deliver messages and dirty further links).
func (nw *Network) doRecompute() {
	nw.recomputeScheduled = false
	nw.lastRecompute = nw.Sim.Now()
	nw.inRecompute = true
	defer func() { nw.inRecompute = false }()
	for len(nw.dirtyLinks) > 0 {
		nw.solve()
	}
}

// solve is the water fill: it re-solves max-min fairness over the
// connected component(s) of the dirty frontier and leaves every rate
// outside them alone.
//
// The region grows transitively — dirty links -> their conns -> those
// conns' links -> ... — to the frontier's whole connected component(s). A
// conn's max-min rate depends only on its component (conns sharing links,
// transitively), and progressive filling decomposes exactly across
// components, so re-solving the closure reproduces what a from-scratch
// global solve would assign there, while rates outside it are still
// valid: none of their links' membership, caps, or up/down state changed.
func (nw *Network) solve() {
	now := nw.Sim.Now()
	nw.epoch++
	epoch := nw.epoch

	links := nw.compLinks[:0]
	for _, l := range nw.dirtyLinks {
		l.dirty = false
		if l.mark != epoch {
			l.mark = epoch
			links = append(links, l)
		}
	}
	nw.dirtyLinks = nw.dirtyLinks[:0]
	flows := nw.compFlows[:0]
	for li := 0; li < len(links); li++ {
		for _, slot := range links[li].conns {
			f := slot.f
			if f.mark == epoch {
				continue
			}
			f.mark = epoch
			flows = append(flows, f)
			for _, pl := range f.path {
				if pl.mark != epoch {
					pl.mark = epoch
					links = append(links, pl)
				}
			}
		}
	}

	nw.lastSolveConns = len(flows)
	nw.stats.FullSolves++
	nw.noteFrontier(len(flows))

	// Advance component flows at their old rates before changing them.
	// This may deliver messages and deactivate flows; linkChanged skips
	// re-queuing links already in this component, whose membership is read
	// live below. The survivors are collected in the same pass — advance
	// only detaches its own flow, and nothing activates during the pass,
	// so the post-advance state each append sees is final.
	unassigned := nw.unassigned[:0]
	nw.inSolve = true
	for _, f := range flows {
		f.advance(now)
		if f.c == nil {
			continue
		}
		f.prevRate = f.rate
		unassigned = append(unassigned, f)
	}
	nw.inSolve = false

	for _, l := range links {
		l.residual = l.cap
		if l.down {
			l.residual = 0 // failed link: crossing conns get rate 0 and stall
		}
		l.nActive = len(l.conns)
	}

	// Link-centric water filling over the component's links. Each round
	// finds the single most constrained link and settles work at its fair
	// share m; because fixing a conn at (or below) the minimum share can
	// only raise the other links' shares, m is non-decreasing across
	// rounds, which makes two shortcuts exact:
	//
	//   - A cursor sweeps the standing cap index (see capIndex) while its
	//     caps are at or below the current m, fixing every component conn
	//     it passes at its cap. Caps already passed can never bind again.
	//     Conns outside the index need no sweep: an unassigned conn keeps
	//     nActive >= 1 on every link of its path, so m <= residual/nActive
	//     <= l.cap there, i.e. m <= pathCap, and a cap above pathCap can
	//     never fall to m. The index yields the binding conns in the same
	//     (rateCap, id) order a heap over the whole component would pop
	//     them.
	//   - A bottleneck round assigns exactly the conns crossing the min
	//     link (each gets m, zeroing the link's residual and nActive),
	//     instead of rescanning every remaining conn's path share.
	//
	// Round cost is O(links) + O(conns fixed x path), so a solve is
	// linear-ish in the component rather than rounds x conns x path — the
	// term that dominated the from-scratch solver at 1024 nodes.
	left := len(unassigned)
	capIndex, capPos := nw.capIndex, 0
	ties := nw.tieLinks[:0]
	for left > 0 {
		m := math.Inf(1)
		ties = ties[:0]
		// A link whose conns are all assigned stays out of every later
		// round (nActive only falls), so the scan drops it in place,
		// keeping the live links' order and with it the tie order.
		live := links[:0]
		for _, l := range links {
			if l.nActive == 0 {
				continue
			}
			live = append(live, l)
			if s := l.residual / float64(l.nActive); s < m {
				m = s
				ties = append(ties[:0], l)
			} else if s == m {
				ties = append(ties, l)
			}
		}
		links = live
		if len(ties) == 0 {
			// No link constraint: should not happen (active conns always
			// cross >= 1 link), but terminate safely at the window cap.
			for _, f := range unassigned {
				if f.mark == epoch {
					nw.assignRate(f, f.rateCap)
					left--
				}
			}
			break
		}
		// Fix every component conn whose cap binds at or below the fair
		// share, then re-find the water level. A sweep that fixes nothing
		// (only conns outside the component, or already drained) left every
		// share as it was, so the bottleneck drain goes ahead at this m.
		swept := false
		for capPos < len(capIndex) && capIndex[capPos].rateCap <= m {
			f := capIndex[capPos]
			capPos++
			if f.mark != epoch {
				continue // outside the component, or drained via a bottleneck
			}
			nw.assignRate(f, f.rateCap)
			left--
			swept = true
		}
		if swept {
			continue
		}
		// Drain the bottlenecks: every unsolved conn crossing a link at the
		// minimum share gets exactly m (their caps are all above m — the
		// cap sweep already fixed everything at or below it). Draining
		// every exactly-tied link in one round matters in symmetric
		// topologies, where hundreds of identical access links hit
		// bit-identical shares: fixing a conn at the minimum share leaves
		// the other tied links' shares at exactly m, so they are all
		// bottlenecks of the same water level.
		for _, l := range ties {
			for _, slot := range l.conns {
				f := slot.f
				if f.mark != epoch {
					continue // outside the component, or already done
				}
				nw.assignRate(f, m)
				left--
			}
		}
	}
	nw.tieLinks = ties[:0]

	// Keep the grown scratch backing arrays for the next solve.
	nw.compLinks = links[:0]
	nw.compFlows = flows[:0]
	nw.unassigned = unassigned[:0]
}

// assignRate fixes a flow's allocation, withdraws it from its links, and
// re-arms its completion event. Every active flow is assigned exactly
// once per solve (it leaves the region's mark behind here, and every
// caller skips flows without it), and its rate is final at that moment,
// so completion scheduling rides along instead of paying a third full
// scan over the component.
func (nw *Network) assignRate(f *flow, r float64) {
	f.mark = nw.epoch - 1
	f.rate = r
	for _, l := range f.path {
		l.residual -= r
		if l.residual < 0 {
			l.residual = 0
		}
		l.nActive--
	}
	// A flow whose rate is unchanged keeps its pending completion
	// event — rescheduling it would be pure queue churn.
	if r != f.prevRate {
		nw.stats.RateChanges++
	} else if f.completionEvt.Queued() {
		return
	}
	f.scheduleCompletion()
}

// capLess orders flows by window cap, conn ID breaking ties, so the cap
// sweep's order (and the solver's float arithmetic) is deterministic.
func capLess(a, b *flow) bool {
	if a.rateCap != b.rateCap {
		return a.rateCap < b.rateCap
	}
	return a.id < b.id
}

// capSlot returns f's position in the cap index under capLess: its slot
// if indexed, else where it would be inserted.
func (nw *Network) capSlot(f *flow) int {
	lo, hi := 0, len(nw.capIndex)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if capLess(nw.capIndex[h], f) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// capIndexAdd indexes a flow that just became active or changed its
// window cap, if that cap can bind (see capIndex).
func (nw *Network) capIndexAdd(f *flow) {
	if f.rateCap > f.c.pathCap {
		return
	}
	i := nw.capSlot(f)
	nw.capIndex = append(nw.capIndex, nil)
	copy(nw.capIndex[i+1:], nw.capIndex[i:])
	nw.capIndex[i] = f
}

// capIndexRemove drops an active flow from the cap index before it goes
// idle or its window cap changes; a no-op if its cap was never indexed.
func (nw *Network) capIndexRemove(f *flow) {
	if f.rateCap > f.c.pathCap {
		return
	}
	i := nw.capSlot(f)
	n := len(nw.capIndex) - 1
	copy(nw.capIndex[i:], nw.capIndex[i+1:])
	nw.capIndex[n] = nil
	nw.capIndex = nw.capIndex[:n]
}
