// Package gfs is a Go reproduction of "Massive High-Performance Global
// File Systems for Grid computing" (Andrews, Kovatch, Jordan — SC'05): a
// GPFS-style wide-area parallel file system with NSD servers, byte-range
// tokens, client caching, RSA multi-cluster authentication and GSI
// identity mapping, built on deterministic discrete-event simulations of
// the paper's networks (TeraGrid WANs, FCIP tunnels) and storage (SATA
// RAID arrays, FC SANs, tape libraries).
//
// This root package is the public facade: it re-exports the types a
// downstream user composes (simulator, network, cluster, file system,
// client) and the experiment runners that regenerate every figure and
// headline number in the paper. The examples/ directory shows complete
// programs; cmd/gfssim runs the paper's experiments from the command
// line.
//
// A minimal session:
//
//	s := gfs.NewSim()
//	nw := gfs.NewNetwork(s)
//	site := gfs.NewSite(s, nw, "sdsc")
//	site.BuildFS(gfs.FSOptions{Name: "gpfs0", BlockSize: gfs.MiB,
//	    Servers: 8, ServerEth: gfs.Gbps,
//	    StoreRate: 400 * gfs.MBps, StoreCap: gfs.TB, StoreStreams: 4})
//	clients := site.AddClients(4, gfs.Gbps, gfs.DefaultClientConfig())
//	s.Go("app", func(p *gfs.Proc) {
//	    m, _ := clients[0].MountLocal(p, site.FS)
//	    f, _ := m.Create(p, "/hello", gfs.DefaultPerm)
//	    _ = f.WriteBytesAt(p, 0, []byte("hello, grid"))
//	    _ = f.Close(p)
//	})
//	s.Run()
package gfs

import (
	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/experiments"
	"gfs/internal/fault"
	"gfs/internal/metrics"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// Simulation kernel.
type (
	// Sim is the discrete-event simulator driving everything.
	Sim = sim.Sim
	// Proc is a simulated process; file-system calls block it in virtual
	// time.
	Proc = sim.Proc
	// Time is virtual time in nanoseconds.
	Time = sim.Time
)

// NewSim returns a fresh simulator with the clock at zero.
func NewSim() *Sim { return sim.New() }

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Network modeling.
type (
	// Network is the flow-level WAN/LAN simulator.
	Network = netsim.Network
	// NetNode is a host or switch in the network.
	NetNode = netsim.Node
	// Link is a directed network pipe; SetDown fails and restores it.
	Link = netsim.Link
	// TCPConfig sets per-connection window behaviour.
	TCPConfig = netsim.TCPConfig
	// RetryPolicy governs recovery from transient RPC failures: attempt
	// budget, per-attempt deadline, exponential backoff. Set it on
	// ClientConfig.Retry to tune how clients ride out server outages.
	RetryPolicy = netsim.RetryPolicy
)

// NewNetwork returns an empty network on the simulator.
func NewNetwork(s *Sim) *Network { return netsim.New(s) }

// Byte and rate units.
type (
	// Bytes is a byte count.
	Bytes = units.Bytes
	// BytesPerSec is a data rate.
	BytesPerSec = units.BytesPerSec
	// BitsPerSec is a link rate.
	BitsPerSec = units.BitsPerSec
)

// Size and rate constants.
const (
	KiB  = units.KiB
	MiB  = units.MiB
	GiB  = units.GiB
	TiB  = units.TiB
	KB   = units.KB
	MB   = units.MB
	GB   = units.GB
	TB   = units.TB
	PB   = units.PB
	MBps = units.MBps
	GBps = units.GBps
	Mbps = units.Mbps
	Gbps = units.Gbps
)

// The Global File System core.
type (
	// Cluster is the unit of administration and multi-cluster trust.
	Cluster = core.Cluster
	// FileSystem is one parallel file system owned by a cluster.
	FileSystem = core.FileSystem
	// NSDServer exports Network Shared Disks to clients.
	NSDServer = core.NSDServer
	// Client consumes file systems, local or across the WAN.
	Client = core.Client
	// ClientConfig tunes pagepool, read-ahead, write-behind and tokens.
	ClientConfig = core.ClientConfig
	// Mount is a mounted file system on a client.
	Mount = core.Mount
	// File is an open file handle.
	File = core.File
	// Identity names a calling user (GSI DN) for permission checks.
	Identity = core.Identity
	// Attrs is a stat result.
	Attrs = core.Attrs
	// Perm is the simplified POSIX permission set.
	Perm = core.Perm
)

// Permission bits.
const (
	OwnerRead   = core.OwnerRead
	OwnerWrite  = core.OwnerWrite
	WorldRead   = core.WorldRead
	WorldWrite  = core.WorldWrite
	DefaultPerm = core.DefaultPerm
)

// NewCluster creates a cluster. Its RSA identity is generated on first
// use: the first public-key export or handshake.
func NewCluster(s *Sim, nw *Network, name string, mode CipherMode) *Cluster {
	return core.NewCluster(s, nw, name, mode)
}

// NewClient attaches a client to a cluster on the given network node.
func NewClient(c *Cluster, name string, node *NetNode, cfg ClientConfig, id Identity) *Client {
	return core.NewClient(c, name, node, cfg, id)
}

// DefaultClientConfig mirrors a well-tuned 2005 GPFS client.
func DefaultClientConfig() ClientConfig { return core.DefaultClientConfig() }

// DefaultRetryPolicy is the NSD I/O recovery policy clients get when
// ClientConfig.Retry is left zero.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }

// Typed errors. Every failure the file-system core reports wraps one of
// these sentinels, so callers branch with errors.Is instead of matching
// message strings:
//
//	if _, err := m.Open(p, "/data"); errors.Is(err, gfs.ErrNotExist) { ... }
var (
	// ErrNotExist reports a path or inode that does not exist.
	ErrNotExist = core.ErrNotExist
	// ErrExist reports a create or rename target that already exists.
	ErrExist = core.ErrExist
	// ErrIsDir reports a file operation on a directory.
	ErrIsDir = core.ErrIsDir
	// ErrNotDir reports a directory operation on a non-directory.
	ErrNotDir = core.ErrNotDir
	// ErrPermission reports a failed permission, grant or auth check.
	ErrPermission = core.ErrPermission
	// ErrNotMounted reports I/O through a detached mount.
	ErrNotMounted = core.ErrNotMounted
	// ErrDirtyPages reports an unmount that would lose dirty data.
	ErrDirtyPages = core.ErrDirtyPages
	// ErrNoSuchDevice reports an unknown NSD or remote device.
	ErrNoSuchDevice = core.ErrNoSuchDevice
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = core.ErrNotEmpty
	// ErrNoSpace reports block allocation on a full filesystem.
	ErrNoSpace = core.ErrNoSpace
	// ErrStale reports access through an out-of-date handle (beyond EOF,
	// beyond the known layout); Refresh the handle and retry.
	ErrStale = core.ErrStale
	// ErrServerDown is a request refused by a failed NSD server; it is
	// transient — retry and failover machinery recovers from it.
	ErrServerDown = core.ErrServerDown
	// ErrClientDown is a revocation refused by a dead client node; the
	// manager reclaims its tokens when the lease expires.
	ErrClientDown = core.ErrClientDown
	// ErrDeadline is an RPC attempt that exceeded its per-call deadline.
	ErrDeadline = netsim.ErrDeadline
)

// Authentication (§6 of the paper).
type (
	// CipherMode mirrors the GPFS cipherList option.
	CipherMode = auth.CipherMode
	// Access is a per-filesystem grant level.
	Access = auth.Access
	// CA issues GSI user credentials.
	CA = auth.CA
	// Credential is a user's certificate + key.
	Credential = auth.Credential
	// GridMap is one site's DN-to-UID mapfile.
	GridMap = auth.GridMap
	// IdentityService unifies ownership across sites.
	IdentityService = auth.IdentityService
)

// Cipher modes and grant levels.
const (
	AuthOnly  = auth.AuthOnly
	AES128    = auth.AES128
	None      = auth.None
	ReadOnly  = auth.ReadOnly
	ReadWrite = auth.ReadWrite
)

// NewCA creates a certificate authority trusted by all grid sites.
func NewCA(name string) (*CA, error) { return auth.NewCA(name) }

// NewIdentityService creates the cross-site ownership service.
func NewIdentityService(ca *CA) *IdentityService { return auth.NewIdentityService(ca) }

// Topology construction and experiment running.
type (
	// Site bundles a cluster with its network and filesystem.
	Site = experiments.Site
	// FSOptions sizes a site's filesystem.
	FSOptions = experiments.FSOptions
	// Result is one experiment's output.
	Result = experiments.Result
	// Runner is a registered experiment.
	Runner = experiments.Runner
)

// NewSite creates a cluster with an Ethernet core switch.
func NewSite(s *Sim, nw *Network, name string) *Site { return experiments.Env{}.NewSite(s, nw, name) }

// FaultPlan is a deterministic, virtual-time script of failures and
// repairs: NSD server crashes and restarts, RAID member failures with
// rebuilds, WAN link outages and flaps, client node deaths. Build one
// up-front, Install it on the simulator, and the same plan replays the
// same trace byte-for-byte. A session that kills a server mid-read and
// rides it out with a generous retry policy:
//
//	cfg := gfs.DefaultClientConfig()
//	cfg.Retry = gfs.RetryPolicy{MaxAttempts: 60,
//	    BaseBackoff: 50 * gfs.Millisecond, MaxBackoff: gfs.Second}
//	clients := site.AddClients(4, gfs.Gbps, cfg)
//	gfs.NewFaultPlan("drill").
//	    ServerCrash(10*gfs.Second, 8*gfs.Second, site.FS.Servers()[0]).
//	    Install(s)
//	s.Go("reader", func(p *gfs.Proc) { ... reads stall, then recover ... })
//	s.Run()
type FaultPlan = fault.Plan

// NewFaultPlan starts an empty fault plan.
func NewFaultPlan(name string) *FaultPlan { return fault.NewPlan(name) }

// Peer wires site b to import site a's filesystem (keys, grants,
// mmremotecluster/mmremotefs) and returns the device name.
func Peer(a, b *Site, access Access) string { return experiments.Peer(a, b, access) }

// Experiments returns the registry regenerating the paper's figures.
func Experiments() []Runner { return experiments.All() }

// ExperimentByName finds a registered experiment.
func ExperimentByName(name string) (Runner, bool) { return experiments.ByName(name) }

// Observability: the mmpmon-style performance monitor and tracer.
type (
	// MountStats is the per-mount I/O statistics record (mmpmon fs_io_s).
	MountStats = core.MountStats
	// Tracer records typed, virtual-time-stamped events; export with
	// WriteChrome (Perfetto) or WriteJSONL.
	Tracer = trace.Tracer
	// TraceEvent is one recorded span or instant.
	TraceEvent = trace.Event
	// Registry collects named latency histograms. Counters are typed
	// fields read through Mount.Stats, FileSystem.Stats and
	// Network.Stats.
	Registry = metrics.Registry
	// Histogram is a log-scale latency histogram with p50/p95/p99.
	Histogram = metrics.Histogram
	// Env is an experiment run's environment: its observability. Pass
	// one to Runner.Run; the zero Env is a plain run.
	Env = experiments.Env
	// ObsConfig selects what an Env's observability collects. With Trace
	// on, every operation's critical path is attributed as it completes
	// (Obs.Agg); Discard keeps the tracer from retaining the events.
	ObsConfig = experiments.ObsConfig
	// Obs carries an observed run's tracer, registry and snapshots.
	Obs = experiments.Obs
)

// NewTracer returns an empty tracer; attach it with Sim.SetTracer.
func NewTracer() *Tracer { return trace.New() }

// NewRegistry returns an empty histogram registry; attach it to
// Network.Metrics to collect RPC, flow and file-system latency samples.
func NewRegistry() *Registry { return metrics.NewRegistry() }

// NewObs builds the observability state for experiment runs; set it as
// Env.Obs. cmd/gfssim builds one from -trace/-stats/-attr/-interval;
// `gfssim -exp anl -stats -attr -interval 10s -timeline-interval 10s
// -timeline-ring 128` prints live mmpmon snapshots.
func NewObs(cfg ObsConfig) *Obs { return experiments.NewObs(cfg) }

// WriteMmpmon renders an mmpmon-style statistics snapshot for clusters
// built directly (without the experiments hook).
var WriteMmpmon = core.WriteMmpmon
