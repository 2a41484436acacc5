package core

import (
	"encoding/hex"
	"fmt"

	"gfs/internal/auth"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// Cluster is a set of nodes sharing GPFS configuration — the unit of
// administration and of multi-cluster trust.
type Cluster struct {
	Sim  *sim.Sim
	Net  *netsim.Network
	Name string

	// Registry is the cluster's mmauth state (keypair, trusted remotes,
	// per-FS grants).
	Registry *auth.Registry

	fss     map[string]*FileSystem
	clients map[string]*Client // every client with a mount here, as the token manager sees them
	members []*Client          // clients created in this cluster, in creation order

	st ClusterStats

	remoteClusters map[string]*RemoteClusterDef
	remoteFS       map[string]*RemoteFS

	contact *netsim.Endpoint
	pending map[string][]byte // in-flight handshakes: client nonce -> server nonce
	peers   map[string]bool   // authenticated importing clusters
}

// RemoteClusterDef is an mmremotecluster entry: how to reach an exporting
// cluster.
type RemoteClusterDef struct {
	Name    string
	Contact *netsim.Endpoint
}

// RemoteFS is an mmremotefs entry: a local device name for a filesystem
// exported by a remote cluster.
type RemoteFS struct {
	Device        string
	RemoteCluster string
	RemoteFSName  string
}

// NewCluster creates a cluster (mmcrcluster). Its RSA identity (mmauth
// genkey) is generated when first used: by the first PublicPEM export
// for mmauth add, or the first handshake. A single-cluster run makes no
// key.
func NewCluster(s *sim.Sim, nw *netsim.Network, name string, mode auth.CipherMode) *Cluster {
	return &Cluster{
		Sim: s, Net: nw, Name: name,
		Registry:       auth.NewRegistry(auth.NewKey(name), mode),
		fss:            make(map[string]*FileSystem),
		clients:        make(map[string]*Client),
		remoteClusters: make(map[string]*RemoteClusterDef),
		remoteFS:       make(map[string]*RemoteFS),
		pending:        make(map[string][]byte),
		peers:          make(map[string]bool),
	}
}

// PublicPEM returns the key file an administrator mails to peer clusters.
func (c *Cluster) PublicPEM() []byte { return c.Registry.Key().PublicPEM() }

// CreateFS makes a filesystem owned by this cluster (mmcrfs). Attach NSD
// servers and a manager before mounting.
func (c *Cluster) CreateFS(name string, blockSize units.Bytes) *FileSystem {
	if _, dup := c.fss[name]; dup {
		panic(fmt.Sprintf("core: filesystem %s exists in %s", name, c.Name))
	}
	fs := newFileSystem(c, name, blockSize)
	c.fss[name] = fs
	return fs
}

// FS returns a filesystem by name.
func (c *Cluster) FS(name string) *FileSystem { return c.fss[name] }

// service name helpers — services are FS- or cluster-qualified so one node
// can serve several filesystems.
func (fs *FileSystem) svc(base string) string { return base + "." + fs.Name }

// AddServer registers a node as an NSD server for this filesystem
// (mmcrnsd assigns NSDs to it via AddNSD).
func (fs *FileSystem) AddServer(name string, node *netsim.Node, conns int) *NSDServer {
	srv := &NSDServer{fs: fs, Name: name, EP: fs.cluster.Net.NewEndpoint(node, conns)}
	srv.EP.HandleAsync(fs.svc(nsdService), kindServe, srv.serve)
	fs.servers = append(fs.servers, srv)
	return srv
}

// SetManager places the filesystem's metadata/token manager on a node.
func (fs *FileSystem) SetManager(node *netsim.Node, conns int) *netsim.Endpoint {
	if fs.mgr != nil {
		panic(fmt.Sprintf("core: %s already has a manager", fs.Name))
	}
	fs.mgr = fs.cluster.Net.NewEndpoint(node, conns)
	fs.mgr.Handle(fs.svc(metaService), fs.serveMeta)
	fs.mgr.Handle(fs.svc(tokenService), fs.serveToken)
	fs.mgr.Handle(fs.svc(mountService), fs.serveMount)
	return fs.mgr
}

// Manager returns the manager endpoint.
func (fs *FileSystem) Manager() *netsim.Endpoint { return fs.mgr }

// --- mmauth / mmremotecluster / mmremotefs analogues ---

// AuthAdd trusts a remote cluster's public key (mmauth add).
func (c *Cluster) AuthAdd(cluster string, pubPEM []byte) error {
	return c.Registry.AddRemote(cluster, pubPEM)
}

// AuthGrant gives an importing cluster access to a filesystem
// (mmauth grant -f fs -a ro|rw).
func (c *Cluster) AuthGrant(fs, cluster string, a auth.Access) error {
	if _, ok := c.fss[fs]; !ok {
		return fmt.Errorf("core: %s: no filesystem %s", c.Name, fs)
	}
	return c.Registry.Grant(fs, cluster, a)
}

// RemoteClusterAdd defines how to reach an exporting cluster
// (mmremotecluster add -n contactNodes).
func (c *Cluster) RemoteClusterAdd(name string, contact *netsim.Endpoint, pubPEM []byte) error {
	if err := c.Registry.AddRemote(name, pubPEM); err != nil {
		return err
	}
	c.remoteClusters[name] = &RemoteClusterDef{Name: name, Contact: contact}
	return nil
}

// RemoteFSAdd defines a local device for a remote filesystem
// (mmremotefs add device -f fsName -C cluster).
func (c *Cluster) RemoteFSAdd(device, remoteCluster, remoteFSName string) error {
	if _, ok := c.remoteClusters[remoteCluster]; !ok {
		return fmt.Errorf("core: unknown remote cluster %s (mmremotecluster add first)", remoteCluster)
	}
	c.remoteFS[device] = &RemoteFS{Device: device, RemoteCluster: remoteCluster, RemoteFSName: remoteFSName}
	return nil
}

// --- cluster authentication service (exporting side) ---

const (
	helloService  = "cluster.hello"
	proofService  = "cluster.proof"
	fsinfoService = "cluster.fsinfo"
)

// SetContact designates a node for inter-cluster authentication
// (the "set of nodes ... used for establishing authentication" in §6.2).
func (c *Cluster) SetContact(node *netsim.Node) *netsim.Endpoint {
	if c.contact != nil {
		panic(fmt.Sprintf("core: %s already has a contact node", c.Name))
	}
	ep := c.Net.NewEndpoint(node, 1)
	ep.Handle(helloService+"."+c.Name, c.serveHello)
	ep.Handle(proofService+"."+c.Name, c.serveProof)
	ep.Handle(fsinfoService+"."+c.Name, c.serveFSInfo)
	c.contact = ep
	return ep
}

// serveFSInfo hands an authenticated peer the manager endpoint of an
// exported filesystem.
func (c *Cluster) serveFSInfo(p *sim.Proc, req *netsim.Request) netsim.Response {
	name, _ := req.Payload.(string)
	fs, ok := c.fss[name]
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: %s exports no filesystem %s", c.Name, name)}
	}
	return netsim.Response{Size: 128, Payload: fs.mgr}
}

// Contact returns the designated authentication endpoint.
func (c *Cluster) Contact() *netsim.Endpoint { return c.contact }

func (c *Cluster) serveHello(p *sim.Proc, req *netsim.Request) netsim.Response {
	hello, ok := req.Payload.(auth.Hello)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: bad hello payload %T", req.Payload)}
	}
	if !c.Registry.Trusted(hello.Cluster) {
		return netsim.Response{Err: fmt.Errorf("core: %s does not trust %s", c.Name, hello.Cluster)}
	}
	ch, ns, err := auth.ServerChallenge(c.Registry.Key(), hello)
	if err != nil {
		return netsim.Response{Err: err}
	}
	c.pending[hex.EncodeToString(hello.NonceC)] = ns
	if tr := c.Sim.Tracer(); tr != nil {
		tr.InstantCtx(trace.Ctx{}, "auth", "hello", c.Name, int64(c.Sim.Now()),
			trace.S("peer", hello.Cluster))
	}
	return netsim.Response{Size: 512, Payload: ch}
}

type proofMsg struct {
	Hello auth.Hello
	Proof auth.Proof
}

func (c *Cluster) serveProof(p *sim.Proc, req *netsim.Request) netsim.Response {
	msg, ok := req.Payload.(proofMsg)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: bad proof payload %T", req.Payload)}
	}
	key := hex.EncodeToString(msg.Hello.NonceC)
	ns, ok := c.pending[key]
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: no handshake in progress")}
	}
	delete(c.pending, key)
	clientPub, ok := c.Registry.TrustedKey(msg.Proof.Cluster)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: %s does not trust %s", c.Name, msg.Proof.Cluster)}
	}
	sess, err := auth.ServerAccept(c.Registry.Key(), clientPub, msg.Hello, ns, msg.Proof, c.Registry.Mode())
	if err != nil {
		return netsim.Response{Err: err}
	}
	c.peers[sess.Peer] = true
	if tr := c.Sim.Tracer(); tr != nil {
		tr.InstantCtx(trace.Ctx{}, "auth", "proof", c.Name, int64(c.Sim.Now()),
			trace.S("peer", sess.Peer))
	}
	return netsim.Response{Size: 128}
}

// Authenticated reports whether a client cluster has completed the
// handshake with this (exporting) cluster.
func (c *Cluster) Authenticated(peer string) bool { return c.peers[peer] }

// authenticateTo runs the client side of the handshake against an
// exporting cluster over the network, paying the RPC round trips and the
// real RSA arithmetic.
func (c *Cluster) authenticateTo(p *sim.Proc, ep *netsim.Endpoint, rc *RemoteClusterDef) error {
	serverPub, ok := c.Registry.TrustedKey(rc.Name)
	if !ok {
		return fmt.Errorf("core: %s has no key for %s", c.Name, rc.Name)
	}
	tr, reg, issued := c.Sim.Tracer(), c.Net.Metrics, c.Sim.Now()
	// record closes over the outcome so every network-visiting return path
	// counts the handshake and emits its span with its outcome attached.
	record := func(err error) error {
		c.st.Handshakes++
		if err != nil {
			c.st.AuthFailures++
		}
		now := c.Sim.Now()
		if tr != nil {
			args := []trace.Arg{trace.S("peer", rc.Name)}
			if err != nil {
				args = append(args, trace.S("err", err.Error()))
			}
			tr.SpanCtx(trace.Ctx{}, 0, "auth", "handshake", c.Name, int64(issued), int64(now), args...)
		}
		if reg != nil {
			reg.Histogram("auth.handshake_ns").Observe(float64(now - issued))
		}
		return err
	}
	hello, nc := auth.ClientHello(c.Registry.Key())
	resp := ep.Call(p, rc.Contact, helloService+"."+rc.Name, 256, hello)
	if resp.Err != nil {
		return record(resp.Err)
	}
	ch, ok := resp.Payload.(auth.Challenge)
	if !ok {
		return record(fmt.Errorf("core: bad challenge %T", resp.Payload))
	}
	proof, _, err := auth.ClientProof(c.Registry.Key(), serverPub, nc, ch, c.Registry.Mode())
	if err != nil {
		return record(err)
	}
	resp = ep.Call(p, rc.Contact, proofService+"."+rc.Name, 768, proofMsg{Hello: hello, Proof: proof})
	return record(resp.Err)
}
