package netsim

import (
	"fmt"

	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// Request is an in-flight RPC as seen by a service handler.
type Request struct {
	From    *Endpoint
	Service string
	Size    units.Bytes // wire size of the request
	Payload any
	Ctx     trace.Ctx // causal context: the op this RPC serves, parented to the RPC span
}

// Response is what a handler returns.
type Response struct {
	Size    units.Bytes // wire size of the response
	Payload any
	Err     error
}

// Handler serves one request. It runs in its own simulated process and may
// block (on disk resources, nested RPCs, etc.). The *Request is valid only
// until the handler returns: it lives in a pooled call record that the
// next RPC reuses, so a handler must not keep the pointer (or hand it to
// a process or callback that outlives it). Copy the fields it needs.
type Handler func(p *sim.Proc, req *Request) Response

// service is one registered handler with its process name, built once at
// Handle time rather than on every request.
type service struct {
	h    Handler
	proc string // "rpc:"+name
}

// peerConns is an endpoint's conn pool to one peer and its round-robin
// cursor.
type peerConns struct {
	conns []*Conn
	rr    int
}

// Endpoint gives a node an RPC personality: named services, plus Call for
// outbound requests. Each (endpoint, peer) pair shares a pool of conns,
// modeling the fixed number of TCP connections a real NSD client keeps per
// server.
type Endpoint struct {
	net      *Network
	node     *Node
	services map[string]service

	connsPerPeer int
	out          map[*Endpoint]*peerConns // request conns, this -> peer

	inFlight     int // outbound RPCs issued but not yet answered
	peakInFlight int // high-water mark of inFlight
}

// HeaderBytes is the fixed protocol overhead added to every request and
// response.
const HeaderBytes = 64

// NewEndpoint wraps a node for RPC. connsPerPeer is the number of parallel
// conns to each peer (>=1); more conns raise the aggregate window over long
// fat networks, as parallel TCP streams do.
func (nw *Network) NewEndpoint(node *Node, connsPerPeer int) *Endpoint {
	if connsPerPeer < 1 {
		connsPerPeer = 1
	}
	return &Endpoint{
		net:          nw,
		node:         node,
		services:     make(map[string]service),
		connsPerPeer: connsPerPeer,
		out:          make(map[*Endpoint]*peerConns),
	}
}

// Node returns the underlying network node.
func (e *Endpoint) Node() *Node { return e.node }

// InFlight returns the number of outbound RPCs issued from this endpoint
// whose responses have not yet arrived — the depth of the request
// pipeline this endpoint is keeping on the wire.
func (e *Endpoint) InFlight() int { return e.inFlight }

// PeakInFlight returns the high-water mark of InFlight over the
// endpoint's lifetime: how deep the prefetch/write-behind pipeline
// actually got, which is what hides the bandwidth-delay product.
func (e *Endpoint) PeakInFlight() int { return e.peakInFlight }

// Handle registers a service handler by name.
func (e *Endpoint) Handle(name string, h Handler) {
	if _, dup := e.services[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate service %q on %s", name, e.node))
	}
	e.services[name] = service{h: h, proc: "rpc:" + name}
}

func (e *Endpoint) connTo(peer *Endpoint) *Conn {
	pc := e.out[peer]
	if pc == nil {
		pc = &peerConns{conns: make([]*Conn, e.connsPerPeer)}
		for i := range pc.conns {
			pc.conns[i] = e.net.Dial(e.node, peer.node)
		}
		e.out[peer] = pc
	}
	c := pc.conns[pc.rr]
	pc.rr = (pc.rr + 1) % len(pc.conns)
	return c
}

// rpcCall is the record of one in-flight RPC. Records are recycled
// through Network.callFree, so a steady-state round trip allocates only
// the handler's process. Its three stages — request arrival, handler
// body, response arrival — are method values bound once per record.
//
// Lifetime: a record is freed after its last read — by Call once its
// caller is woken, or by respond just before onDone runs — so a woken
// caller or onDone may issue the next RPC at once and reuse it. A record
// whose caller or handler process was killed is never freed (it leaks to
// the garbage collector), never freed twice.
type rpcCall struct {
	e, peer  *Endpoint
	svc      service
	req      Request
	resp     Response
	ctx      trace.Ctx // the caller's context; req.Ctx is the RPC's own
	sid      int64     // the RPC's span ID (0 when not tracing)
	issued   sim.Time
	tr       *trace.Tracer     // tracer at issue time, nil when off
	reg      *metrics.Registry // registry at issue time, nil when off
	respConn *Conn
	onDone   func(Response)
	wake     func() // Call's blocked caller; nil for Go
	done     bool   // response arrived (Call only)

	arriveFn  func()
	serveFn   func(*sim.Proc)
	respondFn func()
}

// newCall draws a call record from the free pool.
func (nw *Network) newCall() *rpcCall {
	if n := len(nw.callFree); n > 0 {
		c := nw.callFree[n-1]
		nw.callFree[n-1] = nil
		nw.callFree = nw.callFree[:n-1]
		return c
	}
	c := &rpcCall{}
	c.arriveFn, c.serveFn, c.respondFn = c.arrive, c.serve, c.respond
	return c
}

// freeCall recycles a call record, dropping every reference it holds but
// its bound stages.
func (nw *Network) freeCall(c *rpcCall) {
	*c = rpcCall{arriveFn: c.arriveFn, serveFn: c.serveFn, respondFn: c.respondFn}
	nw.callFree = append(nw.callFree, c)
}

// Call performs a blocking RPC from process p: the request's bytes cross
// the network, the handler runs on the peer (possibly blocking), and the
// response's bytes cross back. It returns the handler's response. The
// RPC inherits p's causal context, so its span parents into whatever
// operation p is executing.
func (e *Endpoint) Call(p *sim.Proc, peer *Endpoint, service string, reqSize units.Bytes, payload any) Response {
	c := e.issue(p.Ctx(), peer, service, reqSize, payload, nil, p.Suspend())
	for !c.done {
		p.Block()
	}
	resp := c.resp
	e.net.freeCall(c)
	return resp
}

// GoCtx performs a non-blocking RPC under the causal context ctx (the
// zero Ctx for none); onDone fires in event context when the response
// arrives. Useful for keeping many requests in flight (the read-ahead
// pipeline at the heart of WAN-GFS performance). The RPC's span ID is
// allocated at issue time; the request flow, the handler process and the
// response flow all run under {ctx.Op, rpc span}, so everything the RPC
// causes — nested calls, disk service, wire transfers — hangs off it in
// the op tree.
func (e *Endpoint) GoCtx(ctx trace.Ctx, peer *Endpoint, service string, reqSize units.Bytes, payload any, onDone func(Response)) {
	e.issue(ctx, peer, service, reqSize, payload, onDone, nil)
}

// issue starts one RPC on a fresh call record and sends its request.
// Exactly one of onDone (GoCtx) and wake (Call) is used on completion.
func (e *Endpoint) issue(ctx trace.Ctx, peer *Endpoint, name string, reqSize units.Bytes, payload any, onDone func(Response), wake func()) *rpcCall {
	svc, ok := peer.services[name]
	if !ok {
		panic(fmt.Sprintf("netsim: no service %q on %s", name, peer.node))
	}
	nw := e.net
	c := nw.newCall()
	c.e, c.peer, c.svc, c.ctx, c.onDone, c.wake = e, peer, svc, ctx, onDone, wake
	c.tr, c.reg, c.issued = nw.Sim.Tracer(), nw.Metrics, nw.Sim.Now()
	var child trace.Ctx
	if c.tr != nil {
		c.sid = c.tr.NewSpanID()
		child = trace.Ctx{Op: ctx.Op, Parent: c.sid}
	}
	e.inFlight++
	if e.inFlight > e.peakInFlight {
		e.peakInFlight = e.inFlight
	}
	nw.st.InFlight++
	if nw.st.InFlight > nw.st.PeakInFlight {
		nw.st.PeakInFlight = nw.st.InFlight
	}
	reqConn := e.connTo(peer)
	c.respConn = peer.connTo(e)
	c.req = Request{From: e, Service: name, Size: reqSize, Payload: payload, Ctx: child}
	reqConn.SendCtx(child, reqSize+HeaderBytes, c.arriveFn)
	return c
}

// arrive runs when the request's last byte lands: spawn the handler.
func (c *rpcCall) arrive() {
	c.peer.net.Sim.Go(c.svc.proc, c.serveFn)
}

// serve is the handler process's body: run the handler, send the
// response back.
func (c *rpcCall) serve(sp *sim.Proc) {
	sp.SetCtx(c.req.Ctx)
	c.resp = c.svc.h(sp, &c.req)
	c.respConn.SendCtx(c.req.Ctx, c.resp.Size+HeaderBytes, c.respondFn)
}

// respond runs when the response's last byte lands back at the caller.
// Nothing may touch c after the caller is woken or c is freed: both hand
// the record on to whatever RPC comes next.
func (c *rpcCall) respond() {
	e := c.e
	nw := e.net
	e.inFlight--
	nw.st.InFlight--
	nw.st.RPCCalls++
	if c.resp.Err != nil {
		nw.st.RPCErrors++
	}
	nw.st.RPCReqBytes += uint64(c.req.Size + HeaderBytes)
	nw.st.RPCRespBytes += uint64(c.resp.Size + HeaderBytes)
	if c.tr != nil || c.reg != nil {
		c.record()
	}
	if c.wake != nil {
		c.done = true
		c.wake()
		return
	}
	onDone, resp := c.onDone, c.resp
	nw.freeCall(c)
	if onDone != nil {
		onDone(resp)
	}
}

// record emits the request/response span and registry samples for a
// completed RPC. Kept out of respond so the disabled path pays only the
// nil checks.
func (c *rpcCall) record() {
	tr, reg, resp := c.tr, c.reg, &c.resp
	service, reqSize := c.req.Service, c.req.Size
	now := c.e.net.Sim.Now()
	if tr != nil {
		args := []trace.Arg{
			trace.I("req_bytes", int64(reqSize)),
			trace.I("resp_bytes", int64(resp.Size)),
		}
		if resp.Err != nil {
			args = append(args, trace.S("err", resp.Err.Error()))
		}
		tr.SpanCtx(c.ctx, c.sid, "rpc", service, c.e.node.name+"->"+c.peer.node.name,
			int64(c.issued), int64(now), args...)
	}
	if reg != nil {
		reg.Histogram("rpc.latency_ns").Observe(float64(now - c.issued))
		reg.Histogram("rpc.latency_ns." + service).Observe(float64(now - c.issued))
	}
}
