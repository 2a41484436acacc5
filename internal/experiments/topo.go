package experiments

import (
	"fmt"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/units"
	"gfs/internal/workload"
)

// lanDelay is an in-machine-room Ethernet hop.
const lanDelay = 50 * sim.Microsecond

// Site is one cluster's network and GFS state.
type Site struct {
	S       *sim.Sim
	Net     *netsim.Network
	Cluster *core.Cluster
	Switch  *netsim.Node
	Fabric  *san.Fabric // nil unless SAN-backed
	FS      *core.FileSystem
	Clients []*core.Client
}

// NewSite creates a cluster with an Ethernet core switch and, when
// observability is on, registers it for snapshots, timelines and solver
// statistics.
func (e Env) NewSite(s *sim.Sim, nw *netsim.Network, name string) *Site {
	cl := core.NewCluster(s, nw, name, auth.AuthOnly)
	if e.Obs != nil {
		e.Obs.clusters = append(e.Obs.clusters, cl)
	}
	return &Site{S: s, Net: nw, Cluster: cl, Switch: nw.NewNode(name + "-sw")}
}

// NewSite creates an unobserved cluster with an Ethernet core switch.
//
// Deprecated: use Env.NewSite; the zero Env gives the same site.
func NewSite(s *sim.Sim, nw *netsim.Network, name string) *Site {
	return Env{}.NewSite(s, nw, name)
}

// FSOptions sizes a site's filesystem.
type FSOptions struct {
	Name      string
	BlockSize units.Bytes
	Servers   int
	ServerEth units.BitsPerSec // NIC per NSD server
	// RateStore path (used when Arrays == 0): idealized per-NSD stores.
	StoreRate    units.BytesPerSec
	StoreCap     units.Bytes
	StoreStreams int
	// SAN path: real DS4100-style arrays; LUNs round-robin onto servers.
	Arrays    int
	ArrayCfg  san.ArrayConfig
	ServerHBA units.BitsPerSec
	HBAsPer   int
}

// serverConns is the number of parallel connections each NSD server's
// endpoint carries.
const serverConns = 2

// BuildFS provisions NSD servers, stores and the manager on the site.
func (st *Site) BuildFS(opt FSOptions) *core.FileSystem {
	fs := st.Cluster.CreateFS(opt.Name, opt.BlockSize)
	st.FS = fs
	servers := make([]*core.NSDServer, opt.Servers)
	nodes := make([]*netsim.Node, opt.Servers)
	for i := 0; i < opt.Servers; i++ {
		node := st.Net.NewNode(fmt.Sprintf("%s-nsd%d", st.Cluster.Name, i))
		st.Net.DuplexLink(fmt.Sprintf("%s-nsd%d-eth", st.Cluster.Name, i), node, st.Switch, opt.ServerEth, lanDelay)
		servers[i] = fs.AddServer(fmt.Sprintf("%s-srv%d", st.Cluster.Name, i), node, serverConns)
		nodes[i] = node
	}
	if opt.Arrays > 0 {
		if st.Fabric == nil {
			st.Fabric = san.NewFabric(st.S, st.Net)
		}
		sw := st.Fabric.Switch(st.Cluster.Name + "-san")
		hbas := opt.HBAsPer
		if hbas < 1 {
			hbas = 1
		}
		for i := range nodes {
			st.Fabric.AttachHBA(nodes[i], sw, opt.ServerHBA, hbas)
		}
		lun := 0
		for a := 0; a < opt.Arrays; a++ {
			arr := st.Fabric.NewArray(fmt.Sprintf("%s-ds%d", st.Cluster.Name, a), sw, opt.ArrayCfg)
			for l := range arr.Sets {
				srv := servers[lun%len(servers)]
				store := core.SANStore{Array: arr, LUN: l, Initiator: srv.EP}
				fs.AddNSD(fmt.Sprintf("%s-a%dl%d", st.Cluster.Name, a, l), store, srv)
				lun++
			}
		}
	} else {
		for i, srv := range servers {
			store := core.NewRateStore(st.S, fmt.Sprintf("%s-store%d", st.Cluster.Name, i),
				opt.StoreRate, opt.StoreCap, opt.StoreStreams)
			fs.AddNSD(fmt.Sprintf("%s-nsd%d", st.Cluster.Name, i), store, srv)
		}
	}
	mgr := st.Net.NewNode(st.Cluster.Name + "-mgr")
	st.Net.DuplexLink(st.Cluster.Name+"-mgr-eth", mgr, st.Switch, units.Gbps, lanDelay)
	fs.SetManager(mgr, 2)
	contact := st.Net.NewNode(st.Cluster.Name + "-contact")
	st.Net.DuplexLink(st.Cluster.Name+"-contact-eth", contact, st.Switch, units.Gbps, lanDelay)
	st.Cluster.SetContact(contact)
	return fs
}

// AddClients attaches n client nodes at the given NIC rate.
func (st *Site) AddClients(n int, nic units.BitsPerSec, cfg core.ClientConfig) []*core.Client {
	var out []*core.Client
	for i := 0; i < n; i++ {
		idx := len(st.Clients)
		node := st.Net.NewNode(fmt.Sprintf("%s-c%d", st.Cluster.Name, idx))
		st.Net.DuplexLink(fmt.Sprintf("%s-c%d-eth", st.Cluster.Name, idx), node, st.Switch, nic, lanDelay)
		cl := core.NewClient(st.Cluster, fmt.Sprintf("c%d", idx), node, cfg,
			core.Identity{DN: fmt.Sprintf("/O=Grid/CN=%s-user%d", st.Cluster.Name, idx)})
		st.Clients = append(st.Clients, cl)
		out = append(out, cl)
	}
	return out
}

// Peer wires site b to import site a's filesystem: key exchange, grant,
// remote-cluster and remote-fs definitions. Device name is returned.
func Peer(a, b *Site, access auth.Access) string {
	if err := a.Cluster.AuthAdd(b.Cluster.Name, b.Cluster.PublicPEM()); err != nil {
		panic(err)
	}
	if err := a.Cluster.AuthGrant(a.FS.Name, b.Cluster.Name, access); err != nil {
		panic(err)
	}
	if err := b.Cluster.RemoteClusterAdd(a.Cluster.Name, a.Cluster.Contact(), a.Cluster.PublicPEM()); err != nil {
		panic(err)
	}
	device := a.FS.Name + "@" + a.Cluster.Name
	if err := b.Cluster.RemoteFSAdd(device, a.Cluster.Name, a.FS.Name); err != nil {
		panic(err)
	}
	return device
}

// MountAll mounts the device (or the local FS when device == "") on every
// client, returning the mounts.
func MountAll(p *sim.Proc, clients []*core.Client, local *core.FileSystem, device string) ([]*core.Mount, error) {
	var out []*core.Mount
	for _, cl := range clients {
		var m *core.Mount
		var err error
		if device == "" {
			m, err = cl.MountLocal(p, local)
		} else {
			m, err = cl.MountRemote(p, device)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// run drives fn as a process to completion, panicking on error (experiment
// construction errors are programming errors).
func (e Env) run(s *sim.Sim, fn func(p *sim.Proc) error) {
	var err error
	done := false
	s.Go("experiment", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	s.Run()
	if e.Obs != nil {
		e.Obs.captureEngine(s)
	}
	if !done {
		panic("experiment deadlocked")
	}
	if err != nil {
		panic(err)
	}
}

// seedFile creates a sized file quickly through a client mount.
func seedFile(p *sim.Proc, m *core.Mount, name string, size, ioSize units.Bytes) error {
	f, err := m.Create(p, name, core.DefaultPerm)
	if err != nil {
		return err
	}
	if _, err := workload.WriteAll(p, f, size, ioSize); err != nil {
		return err
	}
	return f.Close(p)
}

// ethEfficiency is the usable fraction of nominal Ethernet rate once
// IP/TCP framing at a 1500-byte MTU is paid — why a "10 Gb/s" link tops
// out near 9.4 Gb/s of goodput.
const ethEfficiency = 0.94

// newEthernetNet returns a network whose links are derated by Ethernet
// framing; the FC experiments (SC'02, StorCloud) build plain networks —
// FC nominal rates already name payload capacity.
func (e Env) newEthernetNet(s *sim.Sim) *netsim.Network {
	nw := e.newNet(s)
	nw.LinkEfficiency = ethEfficiency
	// Large fleets tolerate slightly stale rate allocations in exchange
	// for an order of magnitude fewer allocation passes. The per-conn
	// term keeps that trade scale-free: a solve costs O(component), so
	// throttling proportionally bounds solver wall share no matter how
	// large the fleet grows, while the 200 us floor dominates below ~500
	// conns and leaves the small-fleet figure experiments untouched.
	nw.MinRecomputeInterval = 200 * sim.Microsecond
	nw.RecomputePerConn = 400 * sim.Nanosecond
	return nw
}
