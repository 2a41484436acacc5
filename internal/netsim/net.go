// Package netsim is a flow-level wide-area network simulator.
//
// Hosts and switches are Nodes joined by directed Links with a bandwidth
// and a propagation delay. Traffic travels over long-lived Conns (TCP
// connections): byte-counted messages queue FIFO on a conn, and the set of
// active conns shares link bandwidth by progressive-filling max-min
// fairness, recomputed whenever a conn activates, idles, or changes its
// window. Each conn is additionally capped at cwnd/RTT with a slow-start
// ramp, which is what makes an 80 ms cross-country RTT matter — the
// question at the heart of the SC'02 Global File System demonstration.
//
// Reallocation is incremental: links whose active-conn membership, window
// caps, or up/down state changed join a dirty frontier, and only the
// connected component of the frontier is re-solved (see solve). Conns
// outside it keep their rates verbatim.
package netsim

import (
	"fmt"
	"math/bits"

	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// Network is a topology plus the machinery that schedules traffic over it.
type Network struct {
	Sim *sim.Sim

	nodes []*Node
	links []*Link
	conns []*Conn

	activeList         []*Conn // active conns (swap-removed; order not meaningful)
	busyLinks          []*Link // links with >= 1 active conn
	dirtyLinks         []*Link // frontier for the next incremental solve
	epoch              uint32  // stamps links/conns into the current component
	inSolve            bool    // inside solve's advance pass
	inRecompute        bool
	recomputeScheduled bool
	recomputeFn        func() // == doRecompute, hoisted to avoid a closure per kick
	lastRecompute      sim.Time

	// solver scratch, reused across solves
	compLinks  []*Link
	compConns  []*Conn
	unassigned []*Conn
	tieLinks   []*Link
	msgFree    []*message
	callFree   []*rpcCall // recycled RPC call records

	// capIndex holds exactly the active conns whose window cap can bind —
	// rateCap <= pathCap — sorted by capLess. activate, bump and
	// deactivate keep it current, so a solve sweeps it with a cursor
	// instead of ordering its region by cap. LAN conns, whose windows
	// outrun their links, never enter it.
	capIndex []*Conn

	routesDirty bool
	dist        [][]int32 // dist[dst.id][n.id] = hops from n to dst, -1 unreachable

	// DefaultTCP is applied to conns dialed without explicit options.
	DefaultTCP TCPConfig

	// Metrics, when non-nil, receives latency histograms from the RPC and
	// flow layers (and from the file-system core, which reaches it
	// through its cluster's network). Nil disables them at the cost of
	// one branch per site. Counters live in Stats, always on.
	Metrics *metrics.Registry

	// LinkEfficiency derates every subsequently created link's usable
	// capacity below its nominal rate (Ethernet + IP + TCP framing eats
	// ~6% at a 1500-byte MTU). Zero means 1.0 — nominal rate usable.
	LinkEfficiency float64

	// MinRecomputeInterval throttles rate reallocation: after one
	// allocation pass, the next runs no sooner than this much virtual
	// time later. Zero recomputes at every instant traffic changes
	// (exact). Large simulations set ~100-250 us: rates are then stale by
	// at most the interval, a percent-level error against multi-ms block
	// transfer times, for an order-of-magnitude event reduction.
	MinRecomputeInterval sim.Time

	// RecomputePerConn scales the throttle with the solve's own cost:
	// the effective interval is max(MinRecomputeInterval,
	// RecomputePerConn x conns in the last solved component). A solve is
	// O(component), so a fixed interval lets engine overhead per
	// simulated second grow linearly with fleet size; scaling the
	// interval the same way bounds it. Below the MinRecomputeInterval
	// floor (a few hundred conns at the defaults) this changes nothing,
	// so small-fleet figure experiments keep their exact-throttle
	// results; at thousands of conns staleness stays percent-level
	// against multi-ms transfers (~2.4 ms at 6k conns and 400 ns/conn vs
	// 134 ms block transfers). Zero disables scaling.
	RecomputePerConn sim.Time

	lastSolveConns int // cost of the last recompute, for the scaled throttle

	// SolveTolerance is ignored: rates always come from the exact
	// connected-component solve.
	//
	// Deprecated: the bottleneck-local tolerance solver was removed.
	SolveTolerance float64

	stats SolverStats
	st    NetStats
}

// NetStats counts a network's RPC and message traffic since it was built;
// each field tagged counter:"<name>" is a line of the -stats counter block.
type NetStats struct {
	RPCCalls        uint64 `counter:"rpc.calls"`            // RPCs answered
	RPCErrors       uint64 `counter:"rpc.errors"`           // RPCs answered with an error
	RPCReqBytes     uint64 `counter:"rpc.req_bytes"`        // request bytes, headers included
	RPCRespBytes    uint64 `counter:"rpc.resp_bytes"`       // response bytes, headers included
	DeadlineExpired uint64 `counter:"rpc.deadline_expired"` // deadlines that fired before the response
	Msgs            uint64 `counter:"net.msgs"`             // messages delivered
	Bytes           uint64 `counter:"net.bytes"`            // message bytes delivered

	// InFlight counts RPCs issued on any endpoint and not yet answered;
	// PeakInFlight is its high-water mark.
	InFlight, PeakInFlight int
}

// Stats returns a snapshot of the network's traffic counters.
func (nw *Network) Stats() NetStats { return nw.st }

// frontierBuckets is the number of log2 component-size buckets in the
// solver's frontier histogram: bucket i holds solves whose component had
// [2^(i-1), 2^i) conns (bucket 0: empty components).
const frontierBuckets = 24

// SolverStats counts the flow solver's work since the network was built.
// All values derive from virtual-time event order, so they are byte-
// deterministic across identical seeded runs.
type SolverStats struct {
	// FullSolves counts connected-component solves.
	FullSolves uint64
	// RegionConns is the cumulative number of conns re-solved.
	RegionConns uint64
	// RateChanges counts the re-solved conns whose assigned rate differs
	// from their rate before the solve: the share of a region that
	// really moves, and whose completion event is re-armed.
	RateChanges uint64
	// FrontierHist is a log2 histogram of solved component sizes (conns
	// per solve): bucket i counts solves with [2^(i-1), 2^i) conns.
	FrontierHist [frontierBuckets]uint64
}

// Add folds other into s — for aggregating across several networks.
func (s *SolverStats) Add(other SolverStats) {
	s.FullSolves += other.FullSolves
	s.RegionConns += other.RegionConns
	s.RateChanges += other.RateChanges
	for i := range s.FrontierHist {
		s.FrontierHist[i] += other.FrontierHist[i]
	}
}

// Solves returns the total number of solves.
func (s *SolverStats) Solves() uint64 { return s.FullSolves }

// SolverStats returns a snapshot of the flow solver's counters.
func (nw *Network) SolverStats() SolverStats { return nw.stats }

// noteFrontier records one solve's component size in the histogram.
func (nw *Network) noteFrontier(conns int) {
	b := 0
	if conns > 0 {
		b = bits.Len(uint(conns))
		if b >= frontierBuckets {
			b = frontierBuckets - 1
		}
	}
	nw.stats.FrontierHist[b]++
	nw.stats.RegionConns += uint64(conns)
}

// TCPConfig models the window behaviour of a connection.
type TCPConfig struct {
	// MaxWindow caps bytes in flight; rate <= MaxWindow/RTT. Zero means
	// unlimited (no window cap).
	MaxWindow units.Bytes
	// InitWindow is the slow-start initial window. Zero disables the ramp
	// (connections start at MaxWindow).
	InitWindow units.Bytes
	// RestartIdle is how long a conn must sit idle before the congestion
	// window collapses back to InitWindow (RFC 2861 slow-start restart).
	// Zero means the 500 ms default; RPC-style traffic with sub-second
	// gaps keeps its window, as real stacks with steady ACK clocking do.
	RestartIdle sim.Time
}

// defaultRestartIdle applies when TCPConfig.RestartIdle is zero.
const defaultRestartIdle = 500 * sim.Millisecond

// New returns an empty network on the given simulator.
func New(s *sim.Sim) *Network {
	nw := &Network{
		Sim: s,
		// 16 MiB default window: enough for ~1.6 Gb/s at 80 ms RTT per
		// conn, matching well-tuned 2005-era TCP stacks.
		DefaultTCP: TCPConfig{MaxWindow: 16 * units.MiB, InitWindow: 64 * units.KiB},
	}
	nw.recomputeFn = nw.doRecompute
	return nw
}

// Node is a host or switch.
type Node struct {
	net  *Network
	id   int
	name string

	out []*Link // links whose Src is this node
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

func (n *Node) String() string { return n.name }

// NewNode adds a node.
func (nw *Network) NewNode(name string) *Node {
	n := &Node{net: nw, id: len(nw.nodes), name: name}
	nw.nodes = append(nw.nodes, n)
	nw.routesDirty = true
	return n
}

// linkSlot is one active conn's membership in a link's conn list; pi is
// the index of the link within the conn's path, so a swap-remove can fix
// the moved conn's back-pointer in O(1).
type linkSlot struct {
	c  *Conn
	pi int32
}

// Link is a directed pipe with a capacity and one-way propagation delay.
type Link struct {
	// The solver's hot fields come first (see Conn). nActive and
	// residual are allocation scratch, valid during a solve.
	mark     uint32 // stamped into the current solve component (vs Network.epoch)
	nActive  int
	residual float64
	cap      float64 // bytes/sec
	// conns lists the active conns crossing this link, in activation
	// order with swap-removal — the deterministic replacement for the
	// old flows map.
	conns []linkSlot

	net   *Network
	id    int
	name  string
	Src   *Node
	Dst   *Node
	delay sim.Time

	Monitor *metrics.RateMonitor // optional; records delivered bytes

	delivered units.Bytes // cumulative bytes delivered across this link

	down  bool // failed link: active conns crossing it stall at rate 0
	dirty bool // queued on Network.dirtyLinks

	busyIdx int // index in Network.busyLinks, -1 when idle
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link bandwidth.
func (l *Link) Capacity() units.BitsPerSec { return units.BitsPerSec(l.cap * 8) }

// Delay returns the one-way propagation delay.
func (l *Link) Delay() sim.Time { return l.delay }

// ActiveConns returns the number of active connections crossing the link.
func (l *Link) ActiveConns() int { return len(l.conns) }

// BytesDelivered returns the cumulative bytes of every message delivered
// across this link — the counter the timeline plane differences into a
// per-window link rate. Bytes are charged at message completion.
func (l *Link) BytesDelivered() units.Bytes { return l.delivered }

// Down reports whether the link is failed.
func (l *Link) Down() bool { return l.down }

// SetDown fails (true) or restores (false) the link. While down, the
// link carries nothing: every conn crossing it is allocated rate zero
// and its in-flight messages stall, resuming — no loss, as TCP would
// guarantee — when the link comes back. Queued state and routes are
// untouched, so a repaired link picks up exactly where it stopped.
// Must be called from event context.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	l.net.linkChanged(l)
	l.net.recompute()
}

// NewLink adds a directed link.
func (nw *Network) NewLink(name string, src, dst *Node, rate units.BitsPerSec, delay sim.Time) *Link {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: link %q rate %v", name, rate))
	}
	if delay < 0 {
		panic(fmt.Sprintf("netsim: link %q negative delay", name))
	}
	eff := nw.LinkEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	l := &Link{
		net: nw, id: len(nw.links), name: name,
		Src: src, Dst: dst,
		cap:     float64(rate) / 8 * eff,
		delay:   delay,
		busyIdx: -1,
	}
	nw.links = append(nw.links, l)
	src.out = append(src.out, l)
	nw.routesDirty = true
	return l
}

// DuplexLink adds a pair of directed links (name+"/fwd", name+"/rev") and
// returns them.
func (nw *Network) DuplexLink(name string, a, b *Node, rate units.BitsPerSec, delay sim.Time) (fwd, rev *Link) {
	fwd = nw.NewLink(name+"/fwd", a, b, rate, delay)
	rev = nw.NewLink(name+"/rev", b, a, rate, delay)
	return fwd, rev
}

// MonitorLink attaches a rate monitor with the given binning interval to a
// link and returns it.
func (nw *Network) MonitorLink(l *Link, interval sim.Time) *metrics.RateMonitor {
	l.Monitor = metrics.NewRateMonitor(nw.Sim, l.name, interval)
	return l.Monitor
}

// Nodes returns all nodes.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// Links returns all links.
func (nw *Network) Links() []*Link { return nw.links }

// recomputeRoutes rebuilds hop-count distance tables (BFS per
// destination) as flat slices indexed by node id — on the dial path this
// table is hit once per hop candidate, and map lookups were a fifth of a
// large run's setup wall-clock.
func (nw *Network) recomputeRoutes() {
	n := len(nw.nodes)
	nw.dist = make([][]int32, n)
	// Reverse adjacency: for BFS from destination we need links into a node.
	in := make([][]*Link, n)
	for _, l := range nw.links {
		in[l.Dst.id] = append(in[l.Dst.id], l)
	}
	queue := make([]int32, 0, n)
	for _, dst := range nw.nodes {
		d := make([]int32, n)
		for i := range d {
			d[i] = -1
		}
		d[dst.id] = 0
		queue = append(queue[:0], int32(dst.id))
		for len(queue) > 0 {
			ni := queue[0]
			queue = queue[1:]
			for _, l := range in[ni] {
				if d[l.Src.id] < 0 {
					d[l.Src.id] = d[ni] + 1
					queue = append(queue, int32(l.Src.id))
				}
			}
		}
		nw.dist[dst.id] = d
	}
	nw.routesDirty = false
}

// pathFor computes the path from src to dst for conn id, spreading conns
// across equal-cost parallel links deterministically (ECMP by conn id).
func (nw *Network) pathFor(src, dst *Node, connID int) ([]*Link, error) {
	if src == dst {
		return nil, nil
	}
	if nw.routesDirty {
		nw.recomputeRoutes()
	}
	d := nw.dist[dst.id]
	if d[src.id] < 0 {
		return nil, fmt.Errorf("netsim: no route %s -> %s", src, dst)
	}
	var path []*Link
	cur := src
	hop := 0
	for cur != dst {
		// Count the equal-cost next hops, then pick one deterministically
		// (ECMP: mix conn id, hop index and node id) — two passes, no
		// candidate slice.
		want := d[cur.id] - 1
		n := 0
		for _, l := range cur.out {
			if d[l.Dst.id] == want {
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("netsim: routing hole at %s toward %s", cur, dst)
		}
		h := uint(connID)*2654435761 + uint(hop)*40503 + uint(cur.id)*97
		pick := int(h % uint(n))
		var chosen *Link
		for _, l := range cur.out {
			if d[l.Dst.id] == want {
				if pick == 0 {
					chosen = l
					break
				}
				pick--
			}
		}
		path = append(path, chosen)
		cur = chosen.Dst
		hop++
		if hop > len(nw.nodes)+1 {
			return nil, fmt.Errorf("netsim: path loop %s -> %s", src, dst)
		}
	}
	return path, nil
}

// PathDelay returns the one-way propagation delay between two nodes along
// the route a fresh conn would take.
func (nw *Network) PathDelay(src, dst *Node) sim.Time {
	path, err := nw.pathFor(src, dst, 0)
	if err != nil {
		panic(err)
	}
	var d sim.Time
	for _, l := range path {
		d += l.delay
	}
	return d
}
