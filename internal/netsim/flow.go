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
// the head message still undelivered live on the conn (Conn.headLeft).
// Messages are recycled through Network.msgFree once delivered.
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
type Conn struct {
	// The fields a solve reads for every conn in its region come first
	// and fill 64 bytes; the completion event it re-arms sits with its
	// callback and network further down.

	// mark == Network.epoch while the conn is in the current solve's
	// region and not yet assigned a rate.
	mark        uint32
	active      bool
	rate        float64 // bytes/sec currently allocated
	prevRate    float64 // allocation scratch
	headLeft    float64 // undelivered bytes of the head message
	lastAdvance sim.Time
	path        []*Link

	rateCap float64 // cwnd/RTT, cached; updated on dial/activate/bump
	cwnd    float64 // bytes
	id      int
	src     *Node
	dst     *Node
	tcp     TCPConfig

	// completionEvt/bumpEvt are caller-owned reusable events (sim.Arm):
	// the hottest timers in the simulator re-arm with zero allocation.
	completionEvt sim.Event
	completionFn  func()
	net           *Network

	oneWay sim.Time
	rtt    sim.Time

	// queue[head:] are the undelivered messages, FIFO. Delivery advances
	// head instead of reslicing, and a drained queue rewinds to the start
	// of its backing array, so a conn carrying one message at a time
	// never reallocates it.
	queue     []*message
	head      int
	actIdx    int     // index in Network.activeList, -1 when inactive
	pathCap   float64 // capacity of the slowest link on path (+Inf if none)
	idleSince sim.Time

	// linkPos[i] is this conn's slot in path[i].conns while active, so
	// deactivation is O(path) with no map or search.
	linkPos []int32

	bumpEvt sim.Event
	bumpFn  func()

	bytesSent units.Bytes
	msgsSent  uint64
}

// Dial opens a connection from src to dst with the network's default TCP
// config.
func (nw *Network) Dial(src, dst *Node) *Conn {
	return nw.DialTCP(src, dst, nw.DefaultTCP)
}

// DialTCP opens a connection with an explicit TCP config.
func (nw *Network) DialTCP(src, dst *Node, tcp TCPConfig) *Conn {
	c := &Conn{
		net: nw, id: len(nw.conns),
		src: src, dst: dst,
		tcp:       tcp,
		actIdx:    -1,
		idleSince: nw.Sim.Now(),
	}
	path, err := nw.pathFor(src, dst, c.id)
	if err != nil {
		panic(err)
	}
	c.path = path
	c.linkPos = make([]int32, len(path))
	c.pathCap = math.Inf(1)
	for _, l := range path {
		c.oneWay += l.delay
		c.pathCap = math.Min(c.pathCap, l.cap)
	}
	c.rtt = 2 * c.oneWay
	c.cwnd = c.initialWindow()
	c.updateRateCap()
	c.completionFn = func() {
		c.net.onCompletion(c)
	}
	c.bumpFn = c.bump
	nw.conns = append(nw.conns, c)
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
func (c *Conn) RTT() sim.Time { return c.rtt }

// Path returns the links the conn crosses.
func (c *Conn) Path() []*Link { return c.path }

// BytesSent returns the cumulative payload bytes delivered.
func (c *Conn) BytesSent() units.Bytes { return c.bytesSent }

// Rate returns the currently allocated rate in bytes/sec.
func (c *Conn) Rate() units.BytesPerSec { return units.BytesPerSec(c.rate) }

// updateRateCap refreshes the cached window-imposed rate cap (bytes/sec).
func (c *Conn) updateRateCap() {
	if c.tcp.MaxWindow <= 0 || c.rtt <= 0 {
		c.rateCap = math.Inf(1)
		return
	}
	c.rateCap = c.cwnd / c.rtt.Seconds()
}

// Queued returns the number of undelivered messages.
func (c *Conn) Queued() int { return len(c.queue) - c.head }

// SendCtx queues size bytes for delivery; onDelivered (optional) fires at
// the virtual instant the last byte arrives at the destination. The flow
// span this message emits on delivery is attributed to ctx (the zero Ctx
// for none). Must be called from event context (inside an event callback
// or a process).
func (c *Conn) SendCtx(ctx trace.Ctx, size units.Bytes, onDelivered func()) {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", size))
	}
	nw := c.net
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
	if c.head > 0 && len(c.queue) == cap(c.queue) {
		// Full with delivered slots at the front: slide the live
		// messages down instead of growing the array.
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:])
		c.queue, c.head = c.queue[:n], 0
	}
	c.queue = append(c.queue, m)
	if !c.active {
		c.activate()
		nw.recompute()
	}
	// A send on an already-active conn changes neither link membership nor
	// any window cap: every allocated rate stays valid verbatim, so no
	// links are dirtied and no reallocation runs.
}

func (c *Conn) activate() {
	nw := c.net
	now := nw.Sim.Now()
	// Slow-start restart after a long idle period (RFC 2861).
	restart := c.tcp.RestartIdle
	if restart <= 0 {
		restart = defaultRestartIdle
	}
	if now-c.idleSince > restart && c.rtt > 0 {
		c.cwnd = c.initialWindow()
		c.updateRateCap()
	}
	c.active = true
	nw.capIndexAdd(c)
	c.lastAdvance = now
	c.startHead(now)
	for i, l := range c.path {
		c.linkPos[i] = int32(len(l.conns))
		l.conns = append(l.conns, linkSlot{c: c, pi: int32(i)})
		if len(l.conns) == 1 {
			l.busyIdx = len(nw.busyLinks)
			nw.busyLinks = append(nw.busyLinks, l)
		}
	}
	nw.rerate(c)
	c.actIdx = len(nw.activeList)
	nw.activeList = append(nw.activeList, c)
	c.scheduleBump()
}

func (c *Conn) deactivate() {
	nw := c.net
	c.active = false
	nw.capIndexRemove(c)
	c.rate = 0
	c.idleSince = nw.Sim.Now()
	for i, l := range c.path {
		nw.linkChanged(l)
		pos := c.linkPos[i]
		last := len(l.conns) - 1
		moved := l.conns[last]
		l.conns[pos] = moved
		moved.c.linkPos[moved.pi] = pos
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
	lastC := nw.activeList[len(nw.activeList)-1]
	nw.activeList[c.actIdx] = lastC
	lastC.actIdx = c.actIdx
	nw.activeList = nw.activeList[:len(nw.activeList)-1]
	c.actIdx = -1
	if c.completionEvt.Queued() {
		c.completionEvt.Cancel()
	}
	if c.bumpEvt.Queued() {
		c.bumpEvt.Cancel()
	}
}

// scheduleBump arranges the next slow-start window doubling.
func (c *Conn) scheduleBump() {
	if c.bumpEvt.Queued() {
		c.bumpEvt.Cancel()
	}
	if c.tcp.MaxWindow <= 0 || c.rtt <= 0 || c.cwnd >= float64(c.tcp.MaxWindow) {
		return
	}
	c.net.Sim.Arm(&c.bumpEvt, kindBump, c.rtt, c.bumpFn)
}

// bump doubles the congestion window — a changed cap invalidates the
// allocation of every conn sharing a link with this one, so its path
// links join the dirty frontier.
func (c *Conn) bump() {
	if !c.active {
		return
	}
	nw := c.net
	// The cap binds only when the last solve allocated exactly at it
	// (assignRate stores rateCap verbatim, so this equality is exact).
	// Raising a cap the solver never consulted cannot move the max-min
	// fixed point: every allocated rate stays valid, so a link-limited
	// conn's window doubling dirties nothing.
	capped := c.rate >= c.rateCap
	nw.capIndexRemove(c)
	c.cwnd *= 2
	if c.cwnd > float64(c.tcp.MaxWindow) {
		c.cwnd = float64(c.tcp.MaxWindow)
	}
	c.updateRateCap()
	nw.capIndexAdd(c)
	c.scheduleBump()
	if !capped {
		return
	}
	nw.rerate(c)
	nw.recompute()
}

// advance credits progress to the head messages up to now, delivering any
// that finish.
func (c *Conn) advance(now sim.Time) {
	if !c.active {
		return
	}
	if now == c.lastAdvance || c.rate == 0 {
		// Nothing to credit: repeat solves at one instant (a draining
		// frontier) advance each conn once, not once per iteration.
		c.lastAdvance = now
		return
	}
	credit := c.rate * (now - c.lastAdvance).Seconds()
	c.lastAdvance = now
	for c.active { // an active conn's queue is never empty
		if c.headLeft > credit+rateEps {
			c.headLeft -= credit
			return
		}
		credit -= c.headLeft
		c.headLeft = 0
		c.deliverHead(now)
	}
}

// startHead puts the message at the head of the queue on the wire.
func (c *Conn) startHead(now sim.Time) {
	m := c.queue[c.head]
	m.started = now
	c.headLeft = m.size
}

func (c *Conn) deliverHead(now sim.Time) {
	nw := c.net
	head := c.queue[c.head]
	c.queue[c.head] = nil
	c.head++
	if c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	// Any pending completion event refers to the delivered message; drop
	// it so a skipped reschedule can never fire it for the next one.
	if c.completionEvt.Queued() {
		c.completionEvt.Cancel()
	}
	c.bytesSent += units.Bytes(head.size)
	c.msgsSent++
	for _, l := range c.path {
		l.delivered += units.Bytes(head.size)
		if l.Monitor != nil {
			l.Monitor.RecordSpread(units.Bytes(head.size), head.started, now)
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
			trace.I("queued", int64(c.Queued())),
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
	if len(c.queue) == 0 {
		c.deactivate()
	} else {
		c.startHead(now)
	}
}

// scheduleCompletion arranges the event at which the head message finishes
// at the current rate.
func (c *Conn) scheduleCompletion() {
	if !c.active || c.rate <= 0 {
		if c.completionEvt.Queued() {
			c.completionEvt.Cancel()
		}
		return
	}
	// A rate that is float dust (the residue of residual subtraction,
	// ~2^-24 B/s) would put the completion ~1e23 ns out — past int64,
	// where the conversion wraps and the dt<1 clamp would re-arm it every
	// nanosecond instead. Park the conn: don't arm at all beyond the
	// horizon. Any future solve that gives it a real rate reschedules it.
	ns := c.headLeft / c.rate * 1e9
	if ns > completionHorizon {
		if c.completionEvt.Queued() {
			c.completionEvt.Cancel()
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
	c.net.Sim.Rearm(&c.completionEvt, kindCompletion, dt, c.completionFn)
}

func (nw *Network) onCompletion(c *Conn) {
	c.advance(nw.Sim.Now())
	if c.active {
		c.scheduleCompletion()
	}
	nw.recompute() // no-op unless the delivery dirtied links
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

// rerate asks for a new rate for c after it joined its links or its
// window cap rose: every link it crosses joins the dirty frontier.
func (nw *Network) rerate(c *Conn) {
	for _, l := range c.path {
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
	conns := nw.compConns[:0]
	for li := 0; li < len(links); li++ {
		for _, slot := range links[li].conns {
			c := slot.c
			if c.mark == epoch {
				continue
			}
			c.mark = epoch
			conns = append(conns, c)
			for _, pl := range c.path {
				if pl.mark != epoch {
					pl.mark = epoch
					links = append(links, pl)
				}
			}
		}
	}

	nw.lastSolveConns = len(conns)
	nw.stats.FullSolves++
	nw.noteFrontier(len(conns))

	// Advance component conns at their old rates before changing them.
	// This may deliver messages and deactivate conns; linkChanged skips
	// re-queuing links already in this component, whose membership is read
	// live below. The survivors are collected in the same pass — advance
	// only changes its own conn's active flag, so the post-advance state
	// each append sees is final.
	unassigned := nw.unassigned[:0]
	nw.inSolve = true
	for _, c := range conns {
		c.advance(now)
		if !c.active {
			continue
		}
		c.prevRate = c.rate
		unassigned = append(unassigned, c)
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
			for _, c := range unassigned {
				if c.mark == epoch {
					nw.assignRate(c, c.rateCap)
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
			c := capIndex[capPos]
			capPos++
			if c.mark != epoch {
				continue // outside the component, or drained via a bottleneck
			}
			nw.assignRate(c, c.rateCap)
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
				c := slot.c
				if c.mark != epoch {
					continue // outside the component, or already done
				}
				nw.assignRate(c, m)
				left--
			}
		}
	}
	nw.tieLinks = ties[:0]

	// Keep the grown scratch backing arrays for the next solve.
	nw.compLinks = links[:0]
	nw.compConns = conns[:0]
	nw.unassigned = unassigned[:0]
}

// assignRate fixes a conn's allocation, withdraws it from its links, and
// re-arms its completion event. Every active conn is assigned exactly
// once per solve (it leaves the region's mark behind here, and every
// caller skips conns without it), and its rate is final at that moment,
// so completion scheduling rides along instead of paying a third full
// scan over the component.
func (nw *Network) assignRate(c *Conn, r float64) {
	c.mark = nw.epoch - 1
	c.rate = r
	for _, l := range c.path {
		l.residual -= r
		if l.residual < 0 {
			l.residual = 0
		}
		l.nActive--
	}
	// A conn whose rate is unchanged keeps its pending completion
	// event — rescheduling it would be pure queue churn.
	if r != c.prevRate {
		nw.stats.RateChanges++
	} else if c.completionEvt.Queued() {
		return
	}
	c.scheduleCompletion()
}

// capLess orders conns by window cap, conn ID breaking ties, so the cap
// sweep's order (and the solver's float arithmetic) is deterministic.
func capLess(a, b *Conn) bool {
	if a.rateCap != b.rateCap {
		return a.rateCap < b.rateCap
	}
	return a.id < b.id
}

// capSlot returns c's position in the cap index under capLess: its slot
// if indexed, else where it would be inserted.
func (nw *Network) capSlot(c *Conn) int {
	lo, hi := 0, len(nw.capIndex)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if capLess(nw.capIndex[h], c) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// capIndexAdd indexes a conn that just became active or changed its
// window cap, if that cap can bind (see capIndex).
func (nw *Network) capIndexAdd(c *Conn) {
	if c.rateCap > c.pathCap {
		return
	}
	i := nw.capSlot(c)
	nw.capIndex = append(nw.capIndex, nil)
	copy(nw.capIndex[i+1:], nw.capIndex[i:])
	nw.capIndex[i] = c
}

// capIndexRemove drops an active conn from the cap index before it goes
// idle or its window cap changes; a no-op if its cap was never indexed.
func (nw *Network) capIndexRemove(c *Conn) {
	if c.rateCap > c.pathCap {
		return
	}
	i := nw.capSlot(c)
	n := len(nw.capIndex) - 1
	copy(nw.capIndex[i:], nw.capIndex[i+1:])
	nw.capIndex[n] = nil
	nw.capIndex = nw.capIndex[:n]
}
