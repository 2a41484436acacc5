// Package fcip models the SC'02 hardware-assist generation of the Global
// File System: Nishan-style gateways that encapsulate Fibre Channel frames
// in IP packets (FCIP), extending a Storage Area Network across a WAN, and
// a SANergy-style client that asks a file server for metadata but moves
// data directly across the extended SAN.
//
// This was the paper's first demonstration that an 80 ms round trip does
// not doom a Global File System: FC's credit-based flow control plus deep
// request pipelining keep the pipe full.
package fcip

import (
	"fmt"

	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// Tunnel is a pair of FCIP gateways joining two SAN switches across a WAN.
type Tunnel struct {
	Name  string
	West  *netsim.Node // gateway at the A side
	East  *netsim.Node // gateway at the B side
	links []*netsim.Link
}

// TunnelConfig sizes the gateway pair.
type TunnelConfig struct {
	// Channels is the number of parallel GbE channels between the
	// gateways (the SC'02 setup ran 4 GbE per Nishan pair, two pairs).
	Channels int
	// ChannelRate is each channel's line rate.
	ChannelRate units.BitsPerSec
	// Delay is the one-way WAN propagation delay (40 ms for
	// San Diego - Baltimore).
	Delay sim.Time
	// EncapOverhead is the fraction of channel bandwidth consumed by
	// FC-in-IP encapsulation (headers, idles); 0.05 is typical.
	EncapOverhead float64
	// FabricRate is the FC-side attachment rate of each gateway.
	FabricRate units.BitsPerSec
}

// DefaultTunnelConfig is the SC'02 configuration: 8 GbE channels total,
// 80 ms RTT, modest encapsulation overhead.
func DefaultTunnelConfig() TunnelConfig {
	return TunnelConfig{
		Channels:      8,
		ChannelRate:   units.Gbps,
		Delay:         40 * sim.Millisecond,
		EncapOverhead: 0.05,
		FabricRate:    16 * units.Gbps,
	}
}

// NewTunnel cables swA and swB together through a gateway pair.
func NewTunnel(f *san.Fabric, name string, swA, swB *netsim.Node, cfg TunnelConfig) *Tunnel {
	if cfg.Channels < 1 {
		panic(fmt.Sprintf("fcip: tunnel %q needs channels", name))
	}
	eff := units.BitsPerSec(float64(cfg.ChannelRate) * (1 - cfg.EncapOverhead))
	t := &Tunnel{Name: name}
	t.West = f.Net.NewNode("fcip:" + name + "/west")
	t.East = f.Net.NewNode("fcip:" + name + "/east")
	f.Net.DuplexLink("fcip:"+name+"/west-attach", swA, t.West, cfg.FabricRate, 10*sim.Microsecond)
	f.Net.DuplexLink("fcip:"+name+"/east-attach", swB, t.East, cfg.FabricRate, 10*sim.Microsecond)
	for i := 0; i < cfg.Channels; i++ {
		fwd, rev := f.Net.DuplexLink(fmt.Sprintf("fcip:%s/ch%d", name, i), t.West, t.East, eff, cfg.Delay)
		t.links = append(t.links, fwd, rev)
	}
	return t
}

// Links returns the tunnel's WAN links (for monitoring).
func (t *Tunnel) Links() []*netsim.Link { return t.links }

// EastboundLinks returns the west-to-east halves only.
func (t *Tunnel) EastboundLinks() []*netsim.Link {
	var out []*netsim.Link
	for i := 0; i < len(t.links); i += 2 {
		out = append(out, t.links[i])
	}
	return out
}

// --- SANergy-style file serving ---

// extent maps a contiguous piece of a file onto an array LUN.
type extent struct {
	Array *san.Array
	LUN   int
	Off   units.Bytes
	Len   units.Bytes
}

// FileServer is the QFS/SAM metadata server: it owns the name space and
// hands clients extent maps; it never touches the data path.
type FileServer struct {
	sim    *sim.Sim
	EP     *netsim.Endpoint
	arrays []*san.Array

	files map[string][]extent
	next  map[string]units.Bytes // per-LUN allocation cursor; key "arr/lun"
	rr    int
}

const metaService = "sanergy.meta"

// NewFileServer creates the metadata server on a node with the given
// backing arrays.
func NewFileServer(f *san.Fabric, node *netsim.Node, arrays []*san.Array) *FileServer {
	fsrv := &FileServer{
		sim:    f.Sim,
		EP:     f.Net.NewEndpoint(node, 1),
		arrays: arrays,
		files:  make(map[string][]extent),
		next:   make(map[string]units.Bytes),
	}
	fsrv.EP.Handle(metaService, fsrv.serve)
	return fsrv
}

type metaReq struct {
	Op   string // "create" | "open"
	Name string
	Size units.Bytes
}

func (s *FileServer) serve(p *sim.Proc, req *netsim.Request) netsim.Response {
	mr, ok := req.Payload.(metaReq)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("fcip: bad meta payload %T", req.Payload)}
	}
	switch mr.Op {
	case "create":
		if _, dup := s.files[mr.Name]; dup {
			return netsim.Response{Err: fmt.Errorf("fcip: %s exists", mr.Name)}
		}
		var exts []extent
		const extentSize = 64 * units.MiB
		for off := units.Bytes(0); off < mr.Size; off += extentSize {
			ln := extentSize
			if off+ln > mr.Size {
				ln = mr.Size - off
			}
			a := s.arrays[s.rr%len(s.arrays)]
			lun := (s.rr / len(s.arrays)) % len(a.Sets)
			s.rr++
			key := fmt.Sprintf("%s/%d", a.Name(), lun)
			cur := s.next[key]
			s.next[key] = cur + ln
			exts = append(exts, extent{Array: a, LUN: lun, Off: cur, Len: ln})
		}
		s.files[mr.Name] = exts
		return netsim.Response{Size: units.Bytes(128 + 32*len(exts)), Payload: exts}
	case "open":
		exts, ok := s.files[mr.Name]
		if !ok {
			return netsim.Response{Err: fmt.Errorf("fcip: %s: no such file", mr.Name)}
		}
		return netsim.Response{Size: units.Bytes(128 + 32*len(exts)), Payload: exts}
	}
	return netsim.Response{Err: fmt.Errorf("fcip: bad op %q", mr.Op)}
}

// Client is a SANergy host: metadata via the file server, data directly
// across the (FCIP-extended) SAN.
type Client struct {
	sim  *sim.Sim
	EP   *netsim.Endpoint
	meta *FileServer

	BytesRead    units.Bytes
	BytesWritten units.Bytes
}

// NewClient creates a SANergy client on a fabric-attached host node.
func NewClient(f *san.Fabric, node *netsim.Node, meta *FileServer, conns int) *Client {
	return &Client{sim: f.Sim, EP: f.Net.NewEndpoint(node, conns), meta: meta}
}

// opRec is one traced SANergy block operation; the zero value means
// tracing is off.
type opRec struct {
	tr    *trace.Tracer
	op    int64
	sid   int64
	start int64
	name  string
}

func (r *opRec) ctx() trace.Ctx { return trace.Ctx{Op: r.op, Parent: r.sid} }

func (c *Client) beginOp(name string) opRec {
	tr := c.sim.Tracer()
	if tr == nil {
		return opRec{}
	}
	return opRec{tr: tr, op: tr.NewOpID(), sid: tr.NewSpanID(), start: int64(c.sim.Now()), name: name}
}

func (c *Client) endOp(r opRec, bytes units.Bytes) {
	if r.tr == nil {
		return
	}
	r.tr.SpanCtx(trace.Ctx{Op: r.op}, r.sid, "op", r.name, c.EP.Node().Name(),
		r.start, int64(c.sim.Now()), trace.I("bytes", int64(bytes)))
}

// Create allocates a file of the given size on the file server.
func (c *Client) Create(p *sim.Proc, name string, size units.Bytes) error {
	resp := c.EP.Call(p, c.meta.EP, metaService, 128, metaReq{Op: "create", Name: name, Size: size})
	return resp.Err
}

// ReadFile streams the whole file: extents are fetched from the metadata
// server once, then block reads pipeline directly against the array
// controllers with `depth` requests outstanding — the deep pipeline that
// beat the 80 ms RTT at SC'02.
func (c *Client) ReadFile(p *sim.Proc, name string, blockSize units.Bytes, depth int) error {
	resp := c.EP.Call(p, c.meta.EP, metaService, 128, metaReq{Op: "open", Name: name})
	if resp.Err != nil {
		return resp.Err
	}
	exts := resp.Payload.([]extent)
	if depth < 1 {
		depth = 1
	}
	window := sim.NewResource(c.sim, "sanergy-window", depth)
	g := sim.NewGroup(c.sim)
	for _, e := range exts {
		for off := units.Bytes(0); off < e.Len; off += blockSize {
			ln := blockSize
			if off+ln > e.Len {
				ln = e.Len - off
			}
			window.Acquire(p, 1)
			g.Add(1)
			e, off, ln := e, off, ln
			// Each block read is one traced operation: issue-to-landing
			// latency is what depth-N pipelining trades against.
			rec := c.beginOp("read")
			e.Array.GoReadLUN(c.EP, rec.ctx(), e.LUN, e.Off+off, ln, func(err error) {
				c.endOp(rec, ln)
				c.BytesRead += ln
				window.Release(1)
				g.Done(err)
			})
		}
	}
	return g.Wait(p)
}

// WriteFile streams data to a pre-created file with the same pipelining.
func (c *Client) WriteFile(p *sim.Proc, name string, blockSize units.Bytes, depth int) error {
	resp := c.EP.Call(p, c.meta.EP, metaService, 128, metaReq{Op: "open", Name: name})
	if resp.Err != nil {
		return resp.Err
	}
	exts := resp.Payload.([]extent)
	if depth < 1 {
		depth = 1
	}
	window := sim.NewResource(c.sim, "sanergy-window", depth)
	g := sim.NewGroup(c.sim)
	for _, e := range exts {
		for off := units.Bytes(0); off < e.Len; off += blockSize {
			ln := blockSize
			if off+ln > e.Len {
				ln = e.Len - off
			}
			window.Acquire(p, 1)
			g.Add(1)
			e, off, ln := e, off, ln
			rec := c.beginOp("write")
			e.Array.GoWriteLUN(c.EP, rec.ctx(), e.LUN, e.Off+off, ln, func(err error) {
				c.endOp(rec, ln)
				c.BytesWritten += ln
				window.Release(1)
				g.Done(err)
			})
		}
	}
	return g.Wait(p)
}
