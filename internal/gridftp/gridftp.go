// Package gridftp implements the paper's baseline data-movement paradigm:
// wholesale file transfer between grid sites with parallel TCP streams
// (§1: "The normal utility used for the data transfer would be GridFTP").
// The Global File System argument is precisely that for very large
// datasets accessed partially, moving whole files loses to direct
// wide-area file system I/O — experiment E7 quantifies that.
package gridftp

import (
	"fmt"

	"gfs/internal/disk"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

const (
	ctrlService = "gridftp.ctrl"
	dataService = "gridftp.data"
)

// Store abstracts the disk behind a GridFTP endpoint.
type Store interface {
	IO(p *sim.Proc, op disk.Op, off, size units.Bytes) error
	Capacity() units.Bytes
}

// Server is a GridFTP daemon on a node.
type Server struct {
	sim   *sim.Sim
	EP    *netsim.Endpoint
	store Store

	files map[string]units.Bytes

	bytesOut units.Bytes
	bytesIn  units.Bytes
}

// NewServer starts a daemon with `streams` parallel data connections per
// peer.
func NewServer(s *sim.Sim, nw *netsim.Network, node *netsim.Node, store Store, streams int) *Server {
	srv := &Server{
		sim:   s,
		EP:    nw.NewEndpoint(node, streams),
		store: store,
		files: make(map[string]units.Bytes),
	}
	srv.EP.Handle(ctrlService, srv.serveCtrl)
	srv.EP.Handle(dataService, srv.serveData)
	return srv
}

// Put registers a file as present on the server (out of band population).
func (s *Server) Put(name string, size units.Bytes) { s.files[name] = size }

// Has reports a file's presence and size.
func (s *Server) Has(name string) (units.Bytes, bool) {
	sz, ok := s.files[name]
	return sz, ok
}

// BytesServed returns (sent, received) payload bytes.
func (s *Server) BytesServed() (units.Bytes, units.Bytes) { return s.bytesOut, s.bytesIn }

type ctrlReq struct {
	Op   string // "stat" | "store"
	Name string
	Size units.Bytes
}

func (s *Server) serveCtrl(p *sim.Proc, req *netsim.Request) netsim.Response {
	cr, ok := req.Payload.(ctrlReq)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("gridftp: bad ctrl payload %T", req.Payload)}
	}
	switch cr.Op {
	case "stat":
		sz, ok := s.files[cr.Name]
		if !ok {
			return netsim.Response{Size: 64, Err: fmt.Errorf("gridftp: %s: no such file", cr.Name)}
		}
		return netsim.Response{Size: 128, Payload: sz}
	case "store":
		s.files[cr.Name] = cr.Size
		return netsim.Response{Size: 64}
	}
	return netsim.Response{Err: fmt.Errorf("gridftp: bad ctrl op %q", cr.Op)}
}

type dataReq struct {
	Op   disk.Op // Read = RETR chunk, Write = STOR chunk
	Name string
	Off  units.Bytes
	Len  units.Bytes
}

func (s *Server) serveData(p *sim.Proc, req *netsim.Request) netsim.Response {
	dr, ok := req.Payload.(dataReq)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("gridftp: bad data payload %T", req.Payload)}
	}
	if _, ok := s.files[dr.Name]; !ok && dr.Op == disk.Read {
		return netsim.Response{Err: fmt.Errorf("gridftp: %s: no such file", dr.Name)}
	}
	if err := s.store.IO(p, dr.Op, dr.Off%s.store.Capacity(), dr.Len); err != nil {
		return netsim.Response{Err: err}
	}
	if dr.Op == disk.Read {
		s.bytesOut += dr.Len
		return netsim.Response{Size: dr.Len}
	}
	s.bytesIn += dr.Len
	return netsim.Response{Size: 64}
}

// Client drives transfers against servers.
type Client struct {
	sim *sim.Sim
	EP  *netsim.Endpoint

	// ChunkSize is the request granularity on the data channels.
	ChunkSize units.Bytes
	// Pipeline is the number of chunks in flight per transfer.
	Pipeline int

	BytesFetched units.Bytes
	BytesPushed  units.Bytes
}

// NewClient creates a client with `streams` parallel data conns per peer.
func NewClient(s *sim.Sim, nw *netsim.Network, node *netsim.Node, streams int) *Client {
	return &Client{
		sim:       s,
		EP:        nw.NewEndpoint(node, streams),
		ChunkSize: 8 * units.MiB,
		Pipeline:  16,
	}
}

// Fetch transfers a whole remote file to local scratch (RETR). It blocks p
// for the full transfer and returns the file size.
func (c *Client) Fetch(p *sim.Proc, srv *Server, name string) (units.Bytes, error) {
	resp := c.EP.Call(p, srv.EP, ctrlService, 128, ctrlReq{Op: "stat", Name: name})
	if resp.Err != nil {
		return 0, resp.Err
	}
	size := resp.Payload.(units.Bytes)
	if err := c.stream(p, srv, name, size, disk.Read); err != nil {
		return 0, err
	}
	c.BytesFetched += size
	return size, nil
}

// Push transfers size bytes to the server under name (STOR).
func (c *Client) Push(p *sim.Proc, srv *Server, name string, size units.Bytes) error {
	resp := c.EP.Call(p, srv.EP, ctrlService, 128, ctrlReq{Op: "store", Name: name, Size: size})
	if resp.Err != nil {
		return resp.Err
	}
	if err := c.stream(p, srv, name, size, disk.Write); err != nil {
		return err
	}
	c.BytesPushed += size
	return nil
}

// stream moves size bytes chunk-by-chunk with Pipeline chunks in flight.
func (c *Client) stream(p *sim.Proc, srv *Server, name string, size units.Bytes, op disk.Op) error {
	if c.ChunkSize <= 0 || c.Pipeline < 1 {
		return fmt.Errorf("gridftp: bad client tuning")
	}
	window := sim.NewResource(c.sim, "gridftp-window", c.Pipeline)
	g := sim.NewGroup(c.sim)
	for off := units.Bytes(0); off < size; off += c.ChunkSize {
		ln := c.ChunkSize
		if off+ln > size {
			ln = size - off
		}
		window.Acquire(p, 1)
		g.Add(1)
		reqSize := units.Bytes(64)
		if op == disk.Write {
			reqSize = ln
		}
		c.EP.GoCtx(trace.Ctx{}, srv.EP, dataService, reqSize, dataReq{Op: op, Name: name, Off: off, Len: ln},
			func(r netsim.Response) {
				window.Release(1)
				g.Done(r.Err)
			})
	}
	return g.Wait(p)
}
