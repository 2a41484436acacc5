// Package san builds Fibre Channel storage fabrics on top of the netsim
// flow simulator: switches, host bus adapters, inter-switch links, and the
// dual-controller DS4100 SATA arrays of the paper's production Global File
// System (32 arrays x 67 drives, seven 8+P RAID5 sets each, two 2 Gb/s
// controllers per array).
package san

import (
	"fmt"

	"gfs/internal/disk"
	"gfs/internal/netsim"
	"gfs/internal/raid"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// Fibre Channel generations (nominal signalling rates).
const (
	FC1 = 1 * units.Gbps
	FC2 = 2 * units.Gbps
	FC4 = 4 * units.Gbps
)

// fcDelay is the propagation delay of an in-machine-room FC hop.
const fcDelay = 10 * sim.Microsecond

// Fabric is a Fibre Channel SAN built from netsim nodes and links.
type Fabric struct {
	Sim *sim.Sim
	Net *netsim.Network

	// Arrays lists every enclosure built on this fabric, in creation
	// order, so tools can sum RAID-set counters after a run.
	Arrays []*Array

	switches map[string]*netsim.Node
}

// NewFabric wraps a network as a SAN fabric.
func NewFabric(s *sim.Sim, nw *netsim.Network) *Fabric {
	return &Fabric{Sim: s, Net: nw, switches: make(map[string]*netsim.Node)}
}

// Switch creates (or returns) a named FC switch.
func (f *Fabric) Switch(name string) *netsim.Node {
	if sw, ok := f.switches[name]; ok {
		return sw
	}
	sw := f.Net.NewNode("fcsw:" + name)
	f.switches[name] = sw
	return sw
}

// ISL joins two switches with count parallel inter-switch links at the
// given rate; conns spread across them by ECMP.
func (f *Fabric) ISL(a, b *netsim.Node, rate units.BitsPerSec, count int) {
	for i := 0; i < count; i++ {
		f.Net.DuplexLink(fmt.Sprintf("isl:%s-%s/%d", a.Name(), b.Name(), i), a, b, rate, fcDelay)
	}
}

// AttachHBA links a host into the fabric with nHBA parallel HBAs at the
// given rate (the SC'04 servers carried three 2 Gb/s HBAs each).
func (f *Fabric) AttachHBA(host *netsim.Node, sw *netsim.Node, rate units.BitsPerSec, nHBA int) {
	for i := 0; i < nHBA; i++ {
		f.Net.DuplexLink(fmt.Sprintf("hba:%s/%d", host.Name(), i), host, sw, rate, fcDelay)
	}
}

// IORequest is the payload of a block I/O RPC to an array controller.
type IORequest struct {
	LUN  int
	Op   disk.Op
	Off  units.Bytes
	Size units.Bytes
}

// ioService is the RPC service name controllers expose.
const ioService = "san.io"

// Array is a dual-controller RAID enclosure. Each controller is a fabric
// node exposing the san.io service; LUN i prefers controller i%2, matching
// the DS4100's split of its internal FC loops.
type Array struct {
	sim  *sim.Sim
	name string

	Sets   []*raid.Set
	Spares []*disk.Disk

	ctl  [2]*netsim.Endpoint
	free []*lunIO // recycled request records
}

// ArrayConfig sizes an enclosure.
type ArrayConfig struct {
	Sets        int              // RAID sets (LUNs)
	MembersPer  int              // drives per set (9 = 8+P)
	Spares      int              // hot spares
	StripeUnit  units.Bytes      // per-disk segment
	Drive       disk.Params      // member drive model
	CtrlRate    units.BitsPerSec // per-controller FC rate
	CtrlStreams int              // parallel conns per controller endpoint
}

// DS4100Config returns the paper's FastT100 DS4100 configuration: 67
// SATA drives as seven 8+P sets plus four hot spares, dual 2 Gb/s
// controllers.
func DS4100Config() ArrayConfig {
	return ArrayConfig{
		Sets:        7,
		MembersPer:  9,
		Spares:      4,
		StripeUnit:  256 * units.KiB,
		Drive:       disk.SATA250(),
		CtrlRate:    FC2,
		CtrlStreams: 4,
	}
}

// NewArray builds an enclosure and cables both controllers to sw.
func (f *Fabric) NewArray(name string, sw *netsim.Node, cfg ArrayConfig) *Array {
	if cfg.Sets <= 0 || cfg.MembersPer < 3 {
		panic(fmt.Sprintf("san: array %q config %+v", name, cfg))
	}
	a := &Array{sim: f.Sim, name: name}
	for i := 0; i < cfg.Sets; i++ {
		members := make([]*disk.Disk, cfg.MembersPer)
		for j := range members {
			members[j] = disk.New(f.Sim, fmt.Sprintf("%s/set%d/d%d", name, i, j), cfg.Drive)
		}
		a.Sets = append(a.Sets, raid.NewSet(f.Sim, fmt.Sprintf("%s/set%d", name, i), members, cfg.StripeUnit))
	}
	for i := 0; i < cfg.Spares; i++ {
		a.Spares = append(a.Spares, disk.New(f.Sim, fmt.Sprintf("%s/spare%d", name, i), cfg.Drive))
	}
	streams := cfg.CtrlStreams
	if streams < 1 {
		streams = 1
	}
	for c := 0; c < 2; c++ {
		node := f.Net.NewNode(fmt.Sprintf("%s/ctl%c", name, 'A'+c))
		f.Net.DuplexLink(fmt.Sprintf("fc:%s/ctl%c", name, 'A'+c), node, sw, cfg.CtrlRate, fcDelay)
		ep := f.Net.NewEndpoint(node, streams)
		a.ctl[c] = ep
	}
	a.ctl[0].HandleAsync(ioService, kindServe, a.serve)
	a.ctl[1].HandleAsync(ioService, kindServe, a.serve)
	f.Arrays = append(f.Arrays, a)
	return a
}

// Name returns the enclosure name.
func (a *Array) Name() string { return a.name }

// Controller returns the endpoint of controller c (0 or 1).
func (a *Array) Controller(c int) *netsim.Endpoint { return a.ctl[c&1] }

// LUNController returns the preferred controller endpoint for a LUN.
func (a *Array) LUNController(lun int) *netsim.Endpoint { return a.ctl[lun&1] }

// Capacity returns total usable capacity across sets.
func (a *Array) Capacity() units.Bytes {
	var c units.Bytes
	for _, s := range a.Sets {
		c += s.Capacity()
	}
	return c
}

// RawCapacity returns raw drive capacity including parity and spares.
func (a *Array) RawCapacity() units.Bytes {
	var c units.Bytes
	for _, s := range a.Sets {
		c += units.Bytes(s.Members()) * 250 * units.GB
	}
	for range a.Spares {
		c += 250 * units.GB
	}
	return c
}

// kindServe labels the service-start events of san.io requests: a
// controller serves them as continuations, not processes.
var kindServe = sim.RegisterEventKind("san.serve")

// lunIO is one san.io request in service at a controller: what its
// RAID completion needs to answer it. Arrays recycle them.
type lunIO struct {
	a      *Array
	req    *netsim.Request
	reply  func(netsim.Response)
	issued sim.Time
	doneFn func()
}

// serve starts one san.io request on its LUN's RAID set; the set's
// completion answers it.
func (a *Array) serve(req *netsim.Request, reply func(netsim.Response)) {
	io, ok := req.Payload.(IORequest)
	if !ok {
		reply(netsim.Response{Err: fmt.Errorf("san: bad payload %T", req.Payload)})
		return
	}
	if io.LUN < 0 || io.LUN >= len(a.Sets) {
		reply(netsim.Response{Err: fmt.Errorf("san: %s has no LUN %d", a.name, io.LUN)})
		return
	}
	var x *lunIO
	if n := len(a.free); n > 0 {
		x = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		x = &lunIO{a: a}
		x.doneFn = x.done
	}
	x.req, x.reply, x.issued = req, reply, a.sim.Now()
	a.Sets[io.LUN].IO(io.Op, io.Off, io.Size, x.doneFn)
}

// done answers the request once its RAID set has served it.
func (x *lunIO) done() {
	a, req, reply := x.a, x.req, x.reply
	io := req.Payload.(IORequest)
	if tr := a.sim.Tracer(); tr != nil {
		// Time inside the RAID set — seeks, media transfer, and on
		// partial-stripe writes the RAID5 read-modify-write — classified
		// as disk service by critical-path attribution.
		name := "read"
		if io.Op == disk.Write {
			name = "write"
		}
		tr.SpanCtx(req.Ctx, 0, "disk", name, a.name, int64(x.issued), int64(a.sim.Now()),
			trace.I("lun", int64(io.LUN)), trace.I("bytes", int64(io.Size)))
	}
	resp := netsim.Response{Size: 64}
	if io.Op == disk.Read {
		resp.Size = io.Size
	}
	*x = lunIO{a: a, doneFn: x.doneFn}
	a.free = append(a.free, x)
	reply(resp)
}

// GoWriteLUN issues a pipelined (non-blocking) write under the causal
// context ctx; the data crosses the fabric in the request.
func (a *Array) GoWriteLUN(initiator *netsim.Endpoint, ctx trace.Ctx, lun int, off, size units.Bytes, onDone func(error)) {
	initiator.GoCtx(ctx, a.LUNController(lun), ioService, size,
		IORequest{LUN: lun, Op: disk.Write, Off: off, Size: size},
		func(r netsim.Response) {
			if onDone != nil {
				onDone(r.Err)
			}
		})
}

// GoReadLUN issues a pipelined (non-blocking) read under the causal
// context ctx.
func (a *Array) GoReadLUN(initiator *netsim.Endpoint, ctx trace.Ctx, lun int, off, size units.Bytes, onDone func(error)) {
	initiator.GoCtx(ctx, a.LUNController(lun), ioService, 64,
		IORequest{LUN: lun, Op: disk.Read, Off: off, Size: size},
		func(r netsim.Response) {
			if onDone != nil {
				onDone(r.Err)
			}
		})
}
