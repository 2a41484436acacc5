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
// until a solve or placement re-rates it, rather than planting an event
// whose delay overflows sim.Time.
const completionHorizon = 1e15

// message is one byte-counted transfer queued on a conn. Messages are
// recycled through Network.msgFree once delivered.
type message struct {
	size        float64
	remaining   float64
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
	net  *Network
	id   int
	src  *Node
	dst  *Node
	path []*Link

	tcp    TCPConfig
	cwnd   float64 // bytes
	oneWay sim.Time
	rtt    sim.Time

	// queue[head:] are the undelivered messages, FIFO. Delivery advances
	// head instead of reslicing, and a drained queue rewinds to the start
	// of its backing array, so a conn carrying one message at a time
	// never reallocates it.
	queue       []*message
	head        int
	active      bool
	actIdx      int     // index in Network.activeList, -1 when inactive
	rate        float64 // bytes/sec currently allocated
	prevRate    float64 // allocation scratch
	rateCap     float64 // cwnd/RTT, cached; updated on dial/activate/bump
	pathCap     float64 // capacity of the slowest link on path (+Inf if none)
	lastAdvance sim.Time
	idleSince   sim.Time

	// linkPos[i] is this conn's slot in path[i].conns while active, so
	// deactivation is O(path) with no map or search.
	linkPos []int32

	// mark stamps the conn into the current incremental-solve component,
	// solved stamps it assigned within that solve (both compared against
	// Network.epoch).
	mark   uint32
	solved uint32

	// dirtyQ marks the conn queued on Network.dirtyConns for tolerance-
	// mode placement (flow arrival or window bump awaiting a rate).
	dirtyQ bool

	// completionEvt/bumpEvt are caller-owned reusable events (sim.Arm):
	// the hottest timers in the simulator re-arm with zero allocation.
	completionEvt sim.Event
	bumpEvt       sim.Event
	completionFn  func()
	bumpFn        func()

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

// Send queues size bytes for delivery; onDelivered (optional) fires at the
// virtual instant the last byte arrives at the destination. Must be called
// from event context (inside an event callback or a process).
func (c *Conn) Send(size units.Bytes, onDelivered func()) {
	c.SendCtx(trace.Ctx{}, size, onDelivered)
}

// SendCtx is Send with a causal context: the flow span this message emits
// on delivery is attributed to ctx.
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
	m.size, m.remaining = float64(size), float64(size)
	m.enq = nw.Sim.Now()
	m.ctx = ctx
	m.onDelivered = onDelivered
	if size == 0 {
		m.size, m.remaining = 1, 1 // headers are never free
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
	c.queue[c.head].started = now
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
	rate := c.rate
	c.rate = 0
	c.idleSince = nw.Sim.Now()
	tol := nw.SolveTolerance
	for i, l := range c.path {
		if tol <= 0 {
			nw.linkChanged(l)
		}
		l.used -= rate
		pos := c.linkPos[i]
		last := len(l.conns) - 1
		moved := l.conns[last]
		l.conns[pos] = moved
		moved.c.linkPos[moved.pi] = pos
		l.conns[last] = linkSlot{}
		l.conns = l.conns[:last]
		if last == 0 {
			// An idle link carries nothing: re-zero the incrementally
			// maintained load so float drift dies with the burst.
			l.used = 0
			l.solvedUsed = 0
		} else if tol > 0 {
			// Tolerance mode: a departure frees capacity the survivors keep
			// not using. That slack is an accepted error until the link's
			// load has drifted past the tolerance since its last solve;
			// then the link is re-solved and the slack redistributed.
			if d := l.used - l.solvedUsed; d > tol*l.cap || d < -tol*l.cap {
				nw.linkChanged(l)
			}
		}
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
	for c.head < len(c.queue) {
		head := c.queue[c.head]
		if head.remaining > credit+rateEps {
			head.remaining -= credit
			return
		}
		credit -= head.remaining
		head.remaining = 0
		c.deliverHead(now)
	}
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
	if reg := nw.Metrics; reg != nil {
		reg.Counter("net.msgs").Inc()
		reg.Counter("net.bytes").Add(uint64(head.size))
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
		c.queue[c.head].started = now
	}
}

// scheduleCompletion arranges the event at which the head message finishes
// at the current rate.
func (c *Conn) scheduleCompletion() {
	if !c.active || len(c.queue) == 0 || c.rate <= 0 {
		if c.completionEvt.Queued() {
			c.completionEvt.Cancel()
		}
		return
	}
	// A rate that is float dust (the residue of cap-minus-used
	// subtraction, ~2^-24 B/s) would put the completion ~1e23 ns out —
	// past int64, where the conversion wraps and the dt<1 clamp would
	// re-arm it every nanosecond instead. Park the conn: don't arm at all
	// beyond the horizon. Any future solve or placement that gives it a
	// real rate reschedules it.
	ns := c.queue[c.head].remaining / c.rate * 1e9
	if ns > completionHorizon {
		if c.completionEvt.Queued() {
			c.completionEvt.Cancel()
		}
		return
	}
	// Lazy re-arm, tolerance mode only: if the pending event already sits
	// within tolerance of the new finish instant, keep it. Big solves
	// nudge thousands of rates by a hair each, and even an in-place heap
	// sift per nudge adds up to more than the whole water fill; a
	// completion firing early is caught by advance() (nothing delivered,
	// re-armed at the residue), one firing late delays the message by at
	// most tolerance x its remaining transfer time — the same ε the rates
	// themselves already carry.
	if tol := c.net.SolveTolerance; tol > 0 && c.completionEvt.Queued() {
		if d := float64(c.completionEvt.When()-c.net.Sim.Now()) - ns; d <= tol*ns && d >= -tol*ns {
			return
		}
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
// window cap rose. Exact mode dirties every link it crosses. Tolerance
// mode queues the conn for placement at its path's standing water level
// instead (see placeDirtyConns): one joining or uncapped conn does not
// require re-solving its links, and only links whose load then drifts
// past the tolerance are re-solved. Placement order is queue order —
// deterministic.
func (nw *Network) rerate(c *Conn) {
	if nw.SolveTolerance <= 0 {
		for _, l := range c.path {
			nw.linkChanged(l)
		}
		return
	}
	if !c.dirtyQ {
		c.dirtyQ = true
		nw.dirtyConns = append(nw.dirtyConns, c)
	}
}

// recompute requests a rate reallocation over the dirty frontier.
// Requests are coalesced into a single event (subject to
// MinRecomputeInterval) so a burst of changes at one instant pays for one
// allocation pass; when no links are dirty the request is free.
func (nw *Network) recompute() {
	if (len(nw.dirtyLinks) == 0 && len(nw.dirtyConns) == 0) ||
		nw.inRecompute || nw.recomputeScheduled {
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
// (advancing a component can deliver messages and dirty further links,
// and in tolerance mode a violated boundary re-seeds the frontier).
func (nw *Network) doRecompute() {
	nw.recomputeScheduled = false
	nw.lastRecompute = nw.Sim.Now()
	nw.inRecompute = true
	nw.localBudget = maxLocalPerRecompute
	nw.drainWork = 0
	defer func() { nw.inRecompute = false }()
	for len(nw.dirtyLinks) > 0 || len(nw.dirtyConns) > 0 {
		nw.solveDirty()
	}
	if nw.SolveTolerance > 0 {
		// Pace the throttle by what the whole drain cost, not the last
		// region's size. A drain is placements plus however many local
		// rounds and expansions it took to settle; pacing by one small
		// region would let an expensive cascade re-run immediately and
		// hand back every cycle the local solver saved.
		nw.lastSolveConns = nw.drainWork
		if len(nw.deferredLinks) > 0 {
			// Promote boundary expansions held over by region solves into the
			// dirty frontier, but do NOT book a drain just for them: any
			// flow event (a completion's deactivate, an arrival's
			// placement) calls recompute, sees the dirt and schedules the
			// next throttle-paced drain, merging the trunk expansion with
			// whatever else accumulated. Traffic dense enough to drift a
			// boundary past tolerance delivers that next event within a
			// throttle interval or so, and an idle network has nothing
			// left to re-rate — staleness stays bounded without spending a
			// dedicated recompute event per expansion.
			nw.dirtyLinks = append(nw.dirtyLinks, nw.deferredLinks...)
			nw.deferredLinks = nw.deferredLinks[:0]
		}
	}
}

// solveDirty re-solves max-min fairness over the dirty frontier and leaves
// every other conn's rate untouched. At SolveTolerance 0 it closes the
// frontier over whole connected components (exact); above 0 it first
// places dirty conns at their paths' standing water levels (no solve at
// all), then runs a region solve over whatever links the placements and
// departures have drifted past the tolerance, escalating back to the
// exact closure when adaptive expansion fails to settle or the periodic
// re-anchor is due.
func (nw *Network) solveDirty() {
	closure := nw.SolveTolerance <= 0
	if !closure {
		if len(nw.dirtyConns) > 0 {
			nw.placeDirtyConns()
		}
		switch {
		case nw.localSince >= nw.fullSolveEvery:
			// Periodic full solve: re-anchor every streaming conn at the
			// exact max-min fixed point so placement and boundary-tolerance
			// drift cannot accumulate. Seeding the frontier with every busy
			// link makes the closure cover everything active.
			nw.localSince = 0
			nw.stats.PeriodicFulls++
			for _, l := range nw.busyLinks {
				if !l.dirty {
					l.dirty = true
					nw.dirtyLinks = append(nw.dirtyLinks, l)
				}
			}
			closure = true
		case len(nw.dirtyLinks) == 0:
			return // placements stayed within tolerance everywhere
		case nw.localBudget <= 0:
			// Expansion ping-ponged past the cap: settle the remaining
			// frontier exactly rather than keep chasing boundaries.
			nw.stats.Escalations++
			closure = true
		default:
			nw.localBudget--
			nw.localSince++
		}
	}
	nw.solve(closure)
}

// placeDirtyConns gives each queued conn a rate at the standing water
// level of its path — the minimum over its links of what a joiner can
// claim there (see placeLevel) — without solving anything. O(path) per
// conn, against O(crossing conns) for the smallest possible solve; flow
// arrivals and window bumps in a steady fleet all take this path.
//
// A placement may overcommit a link: a joiner on a saturated trunk is
// granted the trunk's standing level even though the slack is zero,
// because its max-min fair share there is the level, not the slack. The
// error is bounded by the drift check — any link whose load has moved
// more than SolveTolerance x capacity since its last solve joins the
// dirty frontier and is re-solved exactly, in this same recompute drain,
// before virtual time advances. Under-grants self-correct the same way:
// a placed conn's rate only rises in later solves of its links.
func (nw *Network) placeDirtyConns() {
	now := nw.Sim.Now()
	tol := nw.SolveTolerance
	placed := 0
	for i := 0; i < len(nw.dirtyConns); i++ {
		c := nw.dirtyConns[i]
		c.dirtyQ = false
		if !c.active {
			continue
		}
		// Credit progress at the old rate before changing it. A delivery
		// here can deactivate the conn (drift checks in deactivate handle
		// its links); callbacks are posted, never run inline.
		c.advance(now)
		if !c.active {
			continue
		}
		r := c.rateCap
		var lim *Link
		for _, l := range c.path {
			if est := l.placeLevel(c.rate); est < r {
				r = est
				lim = l
			}
		}
		// Fair-floor guard: max-min fairness guarantees every conn on a
		// link at least cap/len(conns) (the water level can't drop below
		// it). A placement that lands under that floor means the conn
		// would have to displace incumbents to claim its share — which a
		// placement can't do — so hand the link to the real solver. This
		// is what keeps a joiner on a saturated never-bottleneck link
		// (standing level unknown, slack zero) from starving, and is what
		// eventually claws back an incumbent hogging a link whose
		// population has since grown.
		if lim != nil && !lim.down {
			if fair := lim.cap / float64(len(lim.conns)); r < fair*(1-1e-9) {
				nw.linkChanged(lim)
			}
		}
		old := c.rate
		c.rate = r
		for _, l := range c.path {
			l.used += r - old
			if d := l.used - l.solvedUsed; d > tol*l.cap || d < -tol*l.cap {
				nw.linkChanged(l)
			}
		}
		placed++
		if r != old || !c.completionEvt.Queued() {
			c.scheduleCompletion()
		}
	}
	nw.dirtyConns = nw.dirtyConns[:0]
	nw.drainWork += placed
	nw.stats.Placements += uint64(placed)
	// A placement batch counts toward the periodic re-anchor: a workload
	// that settles into pure placements must still be pulled back to the
	// exact fixed point every FullSolveEvery rounds.
	nw.localSince++
}

// solve is the water fill: it re-solves max-min fairness over a region
// grown from the dirty frontier and leaves every rate outside it alone.
//
// With closure set the region grows transitively — dirty links -> their
// conns -> those conns' links -> ... — to the frontier's whole connected
// component(s), and the solve is exact. A conn's max-min rate depends only
// on its component (conns sharing links, transitively), and progressive
// filling decomposes exactly across components, so re-solving the closure
// reproduces what a from-scratch global solve would assign there, while
// rates outside it are still valid: none of their links' membership, caps,
// or up/down state changed.
//
// Without closure (tolerance mode) the region is only the conns crossing a
// dirty link. Every other link those conns touch becomes a *boundary
// link*: it offers what the conns outside the region leave behind
// (cap - (used - region's share)), and only the region's conns compete for
// it — the outside conns' rates are held fixed. Striped read-ahead fuses
// the production fleet into one giant component, so the closure re-solves
// O(fleet) conns on every dirty link; the region is O(conns on the dirty
// links) instead. The approximation is checked a posteriori: a boundary
// link whose load drifted past SolveTolerance x capacity, or whose outside
// conns hold far more than the region's water level there, is deferred to
// the next drain, which grows the region across it. Expansion is therefore
// adaptive — it propagates exactly as far as shares move past the
// tolerance — and each round's rates are consistent snapshots (bytes are
// conserved regardless: completions settle exact message sizes, so a stale
// rate shifts timing, never data).
//
// A closure has no boundary links — every link a region conn crosses is in
// the region — so the boundary init and checks below are empty loops and
// the boundary drain never runs. Only the discovery pass is skipped
// outright, so exact mode pays nothing for it.
func (nw *Network) solve(closure bool) {
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
			if !closure {
				continue
			}
			for _, pl := range c.path {
				if pl.mark != epoch {
					pl.mark = epoch
					links = append(links, pl)
				}
			}
		}
	}

	nw.lastSolveConns = len(conns)
	nw.drainWork += len(conns)
	if closure {
		nw.stats.FullSolves++
	} else {
		nw.stats.LocalSolves++
	}
	nw.noteFrontier(len(conns))

	// Advance region conns at their old rates before changing them. This
	// may deliver messages and deactivate conns; linkChanged defers
	// re-queuing links already in this region (membership is read live
	// below), while newly touched outside links — boundary links included —
	// re-enter the frontier, so membership changes at the region's edge are
	// always re-solved, never approximated away. The survivors are
	// collected in the same pass — advance only changes its own conn's
	// active flag, so the post-advance state each append sees is final.
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

	// Boundary discovery over the survivors, accumulating the region's
	// current (pre-solve) load and membership on each boundary link.
	boundary := nw.boundLinks[:0]
	if !closure {
		for _, c := range unassigned {
			for _, pl := range c.path {
				if pl.mark == epoch {
					continue
				}
				if pl.bMark != epoch {
					pl.bMark = epoch
					pl.compUsed, pl.compNew = 0, 0
					pl.compActive = 0
					pl.compLevel = math.Inf(1)
					pl.compList = pl.compList[:0]
					boundary = append(boundary, pl)
				}
				pl.compUsed += c.rate
				pl.compActive++
				pl.compList = append(pl.compList, c)
			}
		}
		nw.stats.BoundaryLinks += uint64(len(boundary))
	}

	// Link init. Region links are fully re-solved: every conn crossing
	// them is in the region. Boundary links offer only what the outside
	// conns leave: residual = cap - (used - region's share), contended by
	// the region's crossers alone.
	for _, l := range links {
		l.residual = l.cap
		if l.down {
			l.residual = 0 // failed link: crossing conns get rate 0 and stall
		}
		l.nActive = len(l.conns)
		l.level = 0 // re-established below if the link turns out to bind
	}
	for _, l := range boundary {
		outside := l.used - l.compUsed
		if outside < 0 {
			outside = 0
		}
		l.residual = l.cap - outside
		// A standing bottleneck offers each region crosser its water level,
		// not a cut of the leftover slack. On a saturated shared trunk the
		// residual is near zero, and splitting it would starve the region's
		// crossers while the trunk's incumbents keep their full fair share
		// — guaranteeing a fairness violation and a trunk-wide re-solve
		// after every region solve at its edge. Rating crossers at the
		// standing level instead matches what the incumbents hold, the same
		// reasoning as placeLevel for arrivals; any overcommit this books
		// against a stale level is bounded by the drift check, which
		// triggers the real trunk solve once it passes tolerance x cap.
		if lvl := l.level * float64(l.compActive); lvl > l.residual {
			l.residual = lvl
			if l.residual > l.cap {
				l.residual = l.cap
			}
		}
		if l.down || l.residual < 0 {
			l.residual = 0
		}
		l.nActive = l.compActive
	}

	// Link-centric water filling over region + boundary links. Each round
	// finds the single most constrained link and settles work at its fair
	// share m; because fixing a conn at (or below) the minimum share can
	// only raise the other links' shares, m is non-decreasing across
	// rounds, which makes two shortcuts exact:
	//
	//   - A cursor sweeps the standing cap index (see capIndex) while its
	//     caps are at or below the current m, fixing every region conn it
	//     passes at its cap. Caps already passed can never bind again.
	//     Conns outside the index need no sweep: an unassigned conn keeps
	//     nActive >= 1 on every link of its path, so m <= residual/nActive
	//     <= l.cap there, i.e. m <= pathCap, and a cap above pathCap can
	//     never fall to m. The index yields the binding conns in the same
	//     (rateCap, id) order a heap over the whole region would pop them.
	//   - A bottleneck round assigns exactly the conns crossing the min
	//     link (each gets m, zeroing the link's residual and nActive),
	//     instead of rescanning every remaining conn's path share.
	//
	// Round cost is O(links) + O(conns fixed x path), so a solve is
	// linear-ish in the region rather than rounds x conns x path — the
	// term that dominated the from-scratch solver at 1024 nodes.
	links = append(links, boundary...)
	left := len(unassigned)
	capIndex, capPos := nw.capIndex, 0
	ties := nw.tieLinks[:0]
	for left > 0 {
		m := math.Inf(1)
		ties = ties[:0]
		for _, l := range links {
			if l.nActive > 0 {
				if s := l.residual / float64(l.nActive); s < m {
					m = s
					ties = append(ties[:0], l)
				} else if s == m {
					ties = append(ties, l)
				}
			}
		}
		if len(ties) == 0 {
			// No link constraint: should not happen (active conns always
			// cross >= 1 link), but terminate safely at the window cap.
			for _, c := range unassigned {
				if c.solved != epoch {
					c.solved = epoch
					nw.assignRate(c, c.rateCap)
					left--
				}
			}
			break
		}
		// Fix every region conn whose cap binds at or below the fair share,
		// then re-find the water level. A sweep that fixes nothing (only
		// conns outside the region, or already drained) left every share
		// as it was, so the bottleneck drain goes ahead at this m.
		swept := false
		for capPos < len(capIndex) && capIndex[capPos].rateCap <= m {
			c := capIndex[capPos]
			capPos++
			if c.mark != epoch || c.solved == epoch {
				continue // outside the region, or drained via a bottleneck
			}
			c.solved = epoch
			nw.assignRate(c, c.rateCap)
			left--
			swept = true
		}
		if swept {
			continue
		}
		// Drain the bottlenecks: every unsolved region conn crossing a link
		// at the minimum share gets exactly m (their caps are all above m —
		// the cap sweep already fixed everything at or below it).
		// Draining every exactly-tied link in one round matters in
		// symmetric topologies, where hundreds of identical access links
		// hit bit-identical shares: fixing a conn at the minimum share
		// leaves the other tied links' shares at exactly m, so they are
		// all bottlenecks of the same water level.
		for _, l := range ties {
			if l.bMark == epoch {
				// This boundary link bound the region at water level m;
				// the a-posteriori check compares it to the link's own
				// standing level and the outside conns' mean rate. Drain
				// from the region-crosser list built during boundary
				// discovery — the link's own conn list is mostly outside
				// conns (a trunk carries thousands) and scanning it per
				// tie round dominated region-solve cost.
				if m < l.compLevel {
					l.compLevel = m
				}
				if l.compActive == len(l.conns) {
					// Every conn crossing this link is in the region, so the
					// fill is re-rating all of them: the link binds with its
					// full capacity exactly like a region link, and its
					// standing level is as trustworthy as theirs.
					l.level = m
				}
				for _, c := range l.compList {
					if c.solved == epoch {
						continue
					}
					c.solved = epoch
					nw.assignRate(c, m)
					left--
				}
				continue
			}
			l.level = m // region link: new standing level for placement
			for _, slot := range l.conns {
				c := slot.c
				if c.mark != epoch || c.solved == epoch {
					continue // outside the region, or already done
				}
				c.solved = epoch
				nw.assignRate(c, m)
				left--
			}
		}
	}
	nw.tieLinks = ties[:0]

	// Region links are now exactly consistent: re-anchor their drift
	// baseline. Boundary links re-anchor below, only if they pass the
	// tolerance checks — a violated boundary is about to be re-solved.
	for _, l := range links {
		if l.bMark != epoch {
			l.solvedUsed = l.used
		}
	}

	// A-posteriori tolerance checks, all O(1) per boundary link. A
	// boundary link seeds the next solve (growing the region across it)
	// if any of:
	//
	//   - its total load has drifted past the tolerance since the last
	//     solve that re-rated its own conns. This deliberately measures
	//     cumulative drift against the standing solvedUsed baseline, not
	//     the shift this one region solve produced: each region solve
	//     nudges a shared trunk a little, and expanding on every nudge
	//     escalates every region solve into a trunk-sized one. Letting the
	//     nudges accumulate until they sum past tolerance x cap is
	//     exactly the tolerance-mode contract, and buys one trunk solve
	//     per tolerance-worth of real movement instead of one per drain.
	//     For the same reason a passing boundary is NOT re-anchored here
	//     — forgiving drift without re-solving the outside conns would
	//     let it grow without bound;
	//   - it bound the region at water level m while its own standing
	//     bottleneck level, or the outside conns' mean rate, is more than
	//     1.5x above m + tolerance x cap/n. Max-min fairness forbids that
	//     spread on a shared link — the outside conns must give up share.
	//     Without this check a region conn squeezed to m = 0 by a
	//     saturated boundary would shift the load by 0 - 0, mask the
	//     first check, and starve forever. Two calibrations matter. The
	//     additive slop scales with the per-conn fair share cap/n, not
	//     cap: on a trunk carrying hundreds of conns the fair share is
	//     far below tolerance x cap, and a cap-scaled slop would wave
	//     through a region conn pinned at float dust while outside conns
	//     average a thousand times more. And the trigger is a 1.5x ratio,
	//     not the slop alone: ordinary steady-state spread between a
	//     region's level and a trunk's keeps every boundary a few percent
	//     apart, and an additive-only trigger re-expands on that noise
	//     every drain — the expansion ping-pong costs more than the
	//     closure it was avoiding.
	//
	// The mean-rate test can miss a single outlier hiding among many
	// slow outside conns; the periodic full solve bounds how long such a
	// skew can survive. (Advance-pass deactivations may have dirtied some
	// of these links already; linkChanged de-dupes.)
	expanded := false
	tol := nw.SolveTolerance
	for _, l := range boundary {
		if l.compActive == len(l.conns) {
			// Every conn crossing this boundary link was in the region: the
			// fill re-rated all of them against the link's full capacity,
			// leaving it exactly as consistent as a region link. Re-anchor
			// it instead of testing drift — the load shift it just absorbed
			// is the solve's own output, not staleness, and flagging it
			// would re-solve a link with nothing left to correct. This is
			// the common case for client access links at a region's edge
			// (one conn each), and treating them as drift was the single
			// largest source of expansion ping-pong.
			l.solvedUsed = l.used
			continue
		}
		d := l.used - l.solvedUsed
		violated := d > tol*l.cap || d < -tol*l.cap
		if !violated && !math.IsInf(l.compLevel, 1) && len(l.conns) > 0 {
			lvl := 1.5 * (l.compLevel + tol*l.cap/float64(len(l.conns)))
			if outN := len(l.conns) - l.compActive; outN > 0 {
				outLoad := l.used - l.compNew
				if outLoad > lvl*float64(outN) {
					violated = true
				}
			}
		}
		if violated {
			expanded = true
			// Defer, don't cascade: a violated boundary is usually a trunk,
			// and re-solving it in this same drain would swallow the whole
			// trunk component — once per drain, thousands of conns a rung,
			// rung after rung as the region grows. Holding it for the next
			// recompute event lets the cost-scaled throttle pace trunk
			// solves while this drain stays regional. The staleness window
			// is one throttle interval, the same bound MinRecomputeInterval
			// already imposes on every rate in the system. Placement and
			// departure drift still dirty links directly and are solved
			// within their own drain.
			if !l.dirty {
				l.dirty = true
				nw.deferredLinks = append(nw.deferredLinks, l)
			}
		}
	}
	if expanded {
		nw.stats.Expansions++
	}

	// Keep the grown scratch backing arrays for the next solve.
	nw.compLinks = links[:0]
	nw.compConns = conns[:0]
	nw.unassigned = unassigned[:0]
	nw.boundLinks = boundary[:0]
}

// assignRate fixes a conn's allocation, withdraws it from its links, and
// re-arms its completion event. Every active conn is assigned exactly
// once per solve (the solved-epoch guard), and its rate is final at that
// moment, so completion scheduling rides along instead of paying a third
// full scan over the component.
func (nw *Network) assignRate(c *Conn, r float64) {
	old := c.rate
	c.rate = r
	for _, l := range c.path {
		l.residual -= r
		if l.residual < 0 {
			l.residual = 0
		}
		l.nActive--
		l.used += r - old
		if l.bMark == nw.epoch {
			// Boundary link of a local solve: tally the region's new load
			// for the a-posteriori tolerance check. Never true at
			// SolveTolerance 0 (bMark is only ever stamped by local solves).
			l.compNew += r
		}
	}
	// A conn whose rate is unchanged keeps its pending completion
	// event — rescheduling it would be pure queue churn.
	if r == c.prevRate && c.completionEvt.Queued() {
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
