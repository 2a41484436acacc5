package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"gfs/internal/metrics"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// ClientConfig tunes a client's caching behaviour — the knobs whose WAN
// consequences the paper's demonstrations hinge on.
type ClientConfig struct {
	// PagePool is the client cache size in bytes (GPFS pagepool).
	PagePool units.Bytes
	// ReadAhead is how many blocks beyond the current request to prefetch
	// on sequential reads. Deep read-ahead is what hides an 80 ms RTT.
	ReadAhead int
	// WriteBehind is the dirty-page count that triggers asynchronous
	// flushing; twice this count blocks the writer (backpressure).
	WriteBehind int
	// TokenChunk is the number of blocks a token request is widened to,
	// amortizing token RPCs over sequential access.
	TokenChunk int64
	// Retry governs recovery from transient NSD I/O failures (a refused
	// request on a down server, a deadline expiry): per-attempt deadline
	// and exponential backoff between attempts. The zero value takes
	// DefaultRetryPolicy.
	Retry netsim.RetryPolicy
	// WideTokens asks the manager for opportunistic grants: the widest
	// conflict-free range containing the request, carved back down when a
	// competitor shows up.
	WideTokens bool
}

// clientConns is the number of parallel connections a client's endpoint
// carries.
const clientConns = 2

// probeInterval is how often a mount re-probes a primary server it has
// observed down, instead of sending to the backup.
const probeInterval = 500 * sim.Millisecond

// DefaultRetryPolicy tunes NSD I/O recovery: enough attempts with capped
// backoff to ride out a short outage, few enough to surface a dead
// filesystem in bounded time.
func DefaultRetryPolicy() netsim.RetryPolicy {
	return netsim.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: 10 * sim.Millisecond,
		MaxBackoff:  sim.Second,
	}
}

// DefaultClientConfig mirrors a well-tuned 2005 GPFS client.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		PagePool:    512 * units.MiB,
		ReadAhead:   16,
		WriteBehind: 16,
		TokenChunk:  1024,
	}
}

// Client is a file-system consumer node (a compute node, a visualization
// node). One client may mount several filesystems, local and remote.
type Client struct {
	sim     *sim.Sim
	id      string
	cluster *Cluster
	EP      *netsim.Endpoint
	Ident   Identity
	cfg     ClientConfig
	down    bool

	mounts  map[string]*Mount
	retired MountStats // counts of the mounts it has unmounted
}

// NewClient creates a client on a node.
func NewClient(c *Cluster, name string, node *netsim.Node, cfg ClientConfig, id Identity) *Client {
	if cfg.Retry.Attempts() <= 1 && cfg.Retry.BaseBackoff == 0 && cfg.Retry.Deadline == 0 {
		cfg.Retry = DefaultRetryPolicy()
	}
	cl := &Client{
		sim:     c.Sim,
		id:      c.Name + "/" + name,
		cluster: c,
		EP:      c.Net.NewEndpoint(node, clientConns),
		Ident:   id,
		cfg:     cfg,
		mounts:  make(map[string]*Mount),
	}
	cl.EP.Handle(revokeService, cl.serveRevoke)
	c.clients[cl.id] = cl
	c.members = append(c.members, cl)
	return cl
}

// ID returns the globally unique client identifier.
func (cl *Client) ID() string { return cl.id }

// Fail kills the client node: it stops answering token revocations (the
// manager reclaims its tokens after the lease expires). Processes doing
// I/O through its mounts must be stopped by the caller — a dead node runs
// nothing.
func (cl *Client) Fail() { cl.down = true }

// Recover brings a failed client node back. Its token and page caches
// are gone (the manager expired them); mounts must be re-established.
func (cl *Client) Recover() { cl.down = false }

// Down reports the failure state.
func (cl *Client) Down() bool { return cl.down }

// Cluster returns the client's home cluster.
func (cl *Client) Cluster() *Cluster { return cl.cluster }

// Mounts lists the client's mounted filesystems.
func (cl *Client) Mounts() []*Mount {
	out := make([]*Mount, 0, len(cl.mounts))
	for _, m := range cl.mounts {
		out = append(out, m)
	}
	return out
}

// mountsOf counts the client's mounts of filesystems the named cluster
// owns.
func (cl *Client) mountsOf(cluster string) int {
	n := 0
	for _, m := range cl.mounts {
		if m.owner == cluster {
			n++
		}
	}
	return n
}

// Mount is one mounted filesystem on a client.
type Mount struct {
	c      *Client
	Device string
	fsName string
	owner  string // owning cluster
	info   mountInfo
	svc    mountSvcs

	pool       *pagePool
	arena      *bufArena   // recycles page.data and flush scratch buffers
	toks       *tokenTable // local cache; single holder (the client id)
	wgFl       *sim.WaitGroup
	flSig      *sim.Signal // fired on each flush ack, for backpressure
	flInFlight int         // flush RPCs issued but not yet acked
	fo         []foState   // per-NSD failover state, indexed like info.Servers
	detached   bool        // set by Unmount; further I/O fails ErrNotMounted

	// shardDown marks metadata/token shards this mount has observed
	// unavailable; their traffic goes to the coordinator permanently (a
	// stolen shard never takes its authority back).
	shardDown []bool

	st MountStats // counted in place; Stats fills in the derived fields
}

// mountSvcs are the FS-qualified service names a mount calls, built once
// at mount time so no RPC on the data or metadata path formats a name.
type mountSvcs struct {
	meta, token, nsd      string
	shardMeta, shardToken []string // indexed like mountInfo.Shards
}

func newMountSvcs(fsName string, shards int) mountSvcs {
	sv := mountSvcs{
		meta:       metaService + "." + fsName,
		token:      tokenService + "." + fsName,
		nsd:        nsdService + "." + fsName,
		shardMeta:  make([]string, shards),
		shardToken: make([]string, shards),
	}
	for k := 0; k < shards; k++ {
		sv.shardMeta[k] = shardSvcName(metaService, k, fsName)
		sv.shardToken[k] = shardSvcName(tokenService, k, fsName)
	}
	return sv
}

// stripeWOf returns the RAID stripe width behind an NSD, or 0 when the
// store is not striped (plain disk) or the NSD index is out of range.
func (m *Mount) stripeWOf(nsd int) units.Bytes {
	if nsd < 0 || nsd >= len(m.info.StripeW) {
		return 0
	}
	return m.info.StripeW[nsd]
}

// obs returns the tracer and metrics registry visible to this mount.
// Either may be nil; instrumentation sites branch once per operation.
func (m *Mount) obs() (*trace.Tracer, *metrics.Registry) {
	return m.c.sim.Tracer(), m.c.cluster.Net.Metrics
}

// opRec is one in-progress traced client operation (a ReadAt, a WriteAt,
// a Sync, or a background fetch/flush). The zero value means "tracing
// off" and every helper below is then a single branch.
type opRec struct {
	tr    *trace.Tracer
	op    int64 // operation ID
	sid   int64 // the op's root span ID
	start int64
	name  string
	prev  trace.Ctx // p's context before the op, restored by endOp
}

// ctx returns the causal context children of this op should carry.
func (r *opRec) ctx() trace.Ctx { return trace.Ctx{Op: r.op, Parent: r.sid} }

// beginOp opens a traced operation rooted at p: a fresh op ID, a root
// span, and p's context switched to it so every blocking call p makes
// (token RPCs, metadata RPCs) parents underneath.
func (m *Mount) beginOp(p *sim.Proc, name string) opRec {
	tr, _ := m.obs()
	if tr == nil {
		return opRec{}
	}
	r := opRec{
		tr: tr, op: tr.NewOpID(), sid: tr.NewSpanID(),
		start: int64(m.c.sim.Now()), name: name, prev: p.Ctx(),
	}
	p.SetCtx(r.ctx())
	return r
}

// endOp records the op's root span and restores p's previous context.
func (m *Mount) endOp(p *sim.Proc, r opRec, args ...trace.Arg) {
	if r.tr == nil {
		return
	}
	p.SetCtx(r.prev)
	r.tr.SpanCtx(trace.Ctx{Op: r.op}, r.sid, "op", r.name, m.c.id,
		r.start, int64(m.c.sim.Now()), args...)
}

// beginBgOp opens a traced background operation (an async fetch or
// flush) that has no owning process; the returned rec's ctx() is passed
// explicitly to the I/O it issues, and endBgOp closes it from event
// context when the I/O lands.
func (m *Mount) beginBgOp(name string) opRec {
	tr, _ := m.obs()
	if tr == nil {
		return opRec{}
	}
	return opRec{
		tr: tr, op: tr.NewOpID(), sid: tr.NewSpanID(),
		start: int64(m.c.sim.Now()), name: name,
	}
}

// endBgOp records a background op's root span.
func (m *Mount) endBgOp(r opRec, args ...trace.Arg) {
	if r.tr == nil {
		return
	}
	r.tr.SpanCtx(trace.Ctx{Op: r.op}, r.sid, "op", r.name, m.c.id,
		r.start, int64(m.c.sim.Now()), args...)
}

// waitSpan records time an op spent blocked on cache machinery (a fetch
// in flight, write-behind backpressure, a sync drain). critpath
// redistributes these over the background ops that did the actual work.
func (m *Mount) waitSpan(p *sim.Proc, tr *trace.Tracer, name string, start int64) {
	if tr == nil {
		return
	}
	now := int64(m.c.sim.Now())
	if now <= start {
		return
	}
	tr.SpanCtx(p.Ctx(), 0, "cache", name, m.c.id, start, now)
}

// MountLocal mounts a filesystem owned by the client's own cluster.
func (cl *Client) MountLocal(p *sim.Proc, fs *FileSystem) (*Mount, error) {
	return cl.mount(p, fs.Name, fs.Name, fs.cluster.Name, fs.mgr)
}

// MountRemote mounts a device defined by mmremotefs: it authenticates to
// the owning cluster (once), locates the filesystem manager, and fetches
// the NSD configuration.
func (cl *Client) MountRemote(p *sim.Proc, device string) (*Mount, error) {
	def, ok := cl.cluster.remoteFS[device]
	if !ok {
		return nil, fmt.Errorf("core: remote device %s (mmremotefs add first): %w", device, ErrNoSuchDevice)
	}
	rc := cl.cluster.remoteClusters[def.RemoteCluster]
	if err := cl.cluster.authenticateTo(p, cl.EP, rc); err != nil {
		return nil, err
	}
	resp := cl.EP.Call(p, rc.Contact, fsinfoService+"."+rc.Name, 128, def.RemoteFSName)
	if resp.Err != nil {
		return nil, resp.Err
	}
	mgr, ok := resp.Payload.(*netsim.Endpoint)
	if !ok || mgr == nil {
		return nil, fmt.Errorf("core: bad fsinfo reply")
	}
	return cl.mount(p, device, def.RemoteFSName, def.RemoteCluster, mgr)
}

func (cl *Client) mount(p *sim.Proc, device, fsName, owner string, mgr *netsim.Endpoint) (*Mount, error) {
	if _, dup := cl.mounts[device]; dup {
		return nil, fmt.Errorf("core: %s already mounted on %s: %w", device, cl.id, ErrExist)
	}
	resp := cl.EP.Call(p, mgr, mountService+"."+fsName, 256, mountReq{Cluster: cl.cluster.Name, Client: cl})
	if resp.Err != nil {
		return nil, resp.Err
	}
	info, ok := resp.Payload.(mountInfo)
	if !ok {
		return nil, fmt.Errorf("core: bad mount reply %T", resp.Payload)
	}
	arena := newBufArena(cl.sim, int(info.BlockSize))
	m := &Mount{
		c: cl, Device: device, fsName: fsName, owner: owner, info: info,
		svc:       newMountSvcs(fsName, len(info.Shards)),
		pool:      newPagePool(int(cl.cfg.PagePool/info.BlockSize), arena),
		arena:     arena,
		toks:      newTokenTable(),
		wgFl:      sim.NewWaitGroup(cl.sim),
		flSig:     sim.NewSignal(cl.sim),
		fo:        make([]foState, len(info.Servers)),
		shardDown: make([]bool, len(info.Shards)),
	}
	cl.mounts[device] = m
	return m, nil
}

// BlockSize returns the filesystem block size.
func (m *Mount) BlockSize() units.Bytes { return m.info.BlockSize }

// DropCaches discards every clean cached page (echo 3 > drop_caches), so
// subsequent reads hit the NSD servers again. Dirty and in-flight pages
// are kept.
func (m *Mount) DropCaches() { m.pool.invalidateAll() }

// --- metadata operations ---

func (m *Mount) meta(p *sim.Proc, op metaOp) netsim.Response {
	if m.detached {
		return netsim.Response{Err: fmt.Errorf("core: %s on %s: %w", m.Device, m.c.id, ErrNotMounted)}
	}
	op.Cluster = m.c.cluster.Name
	op.Caller = m.c.Ident
	_, reg := m.obs()
	issued := m.c.sim.Now()
	m.st.MetaCalls++
	resp := m.metaCall(p, op)
	if reg != nil {
		// meta.call_ns is the client-observed metadata latency — wire plus
		// manager-queue wait — the quantity the metastorm critpath
		// attribution reads.
		reg.Histogram("meta.call_ns").Observe(float64(m.c.sim.Now() - issued))
	}
	return resp
}

// metaCall routes one metadata op: to the home shard when the plane is
// sharded and the shard is believed up, falling back to the coordinator
// (permanently, for that shard) on ErrServerDown/ErrShardMoved.
func (m *Mount) metaCall(p *sim.Proc, op metaOp) netsim.Response {
	if n := len(m.info.Shards); n > 0 {
		if k := metaRoute(n, op); k >= 0 && !m.shardDown[k] {
			resp := m.c.EP.Call(p, m.info.Shards[k], m.svc.shardMeta[k], 192, op)
			if !shardUnavailable(resp.Err) {
				m.st.ShardMetaOps++
				return resp
			}
			m.shardDown[k] = true
			m.st.ShardFallbacks++
		}
	}
	return m.c.EP.Call(p, m.info.Manager, m.svc.meta, 192, op)
}

// Create makes a new file.
func (m *Mount) Create(p *sim.Proc, path string, mode Perm) (*File, error) {
	resp := m.meta(p, metaOp{Op: "create", Path: path, Mode: mode})
	if resp.Err != nil {
		return nil, resp.Err
	}
	return m.fileFrom(resp.Payload.(Attrs)), nil
}

// Open opens an existing file.
func (m *Mount) Open(p *sim.Proc, path string) (*File, error) {
	resp := m.meta(p, metaOp{Op: "lookup", Path: path})
	if resp.Err != nil {
		return nil, resp.Err
	}
	a := resp.Payload.(Attrs)
	if a.Dir {
		return nil, fmt.Errorf("core: %s: %w", path, ErrIsDir)
	}
	return m.fileFrom(a), nil
}

func (m *Mount) fileFrom(a Attrs) *File {
	m.st.Opens++
	return &File{m: m, ino: a.Inode, name: a.Name, size: a.Size}
}

// Stat returns file attributes.
func (m *Mount) Stat(p *sim.Proc, path string) (Attrs, error) {
	resp := m.meta(p, metaOp{Op: "stat", Path: path})
	if resp.Err != nil {
		return Attrs{}, resp.Err
	}
	return resp.Payload.(Attrs), nil
}

// Mkdir creates a directory.
func (m *Mount) Mkdir(p *sim.Proc, path string) error {
	return m.meta(p, metaOp{Op: "mkdir", Path: path, Mode: DefaultPerm}).Err
}

// List returns directory entries.
func (m *Mount) List(p *sim.Proc, path string) ([]Attrs, error) {
	resp := m.meta(p, metaOp{Op: "list", Path: path})
	if resp.Err != nil {
		return nil, resp.Err
	}
	out, _ := resp.Payload.([]Attrs)
	return out, nil
}

// Remove deletes a file or empty directory. Any cached pages for the
// victim are discarded first: a write-behind flush that landed after the
// blocks were freed would scribble on storage another file may since
// have been allocated.
func (m *Mount) Remove(p *sim.Proc, path string) error {
	resp := m.meta(p, metaOp{Op: "stat", Path: path})
	if resp.Err == nil {
		a := resp.Payload.(Attrs)
		if !a.Dir {
			m.flushRange(p, a.Inode, 0, 1<<60)
			m.pool.discard(a.Inode, 0)
		}
	}
	return m.meta(p, metaOp{Op: "remove", Path: path}).Err
}

// foState is the per-NSD failover record a mount keeps about its primary
// server: whether it was last observed down, and when to look again.
type foState struct {
	down      bool
	nextProbe sim.Time // earliest virtual time to re-probe the primary
}

// transientIO classifies NSD I/O errors worth retrying: a refusal from a
// down server, or a per-attempt deadline expiry. Permanent failures (bad
// payload, permission, no such device) are surfaced immediately.
func transientIO(err error) bool {
	return errors.Is(err, ErrServerDown) || errors.Is(err, netsim.ErrDeadline)
}

// goIO issues one NSD I/O with retry and primary/backup failover. A
// transient failure on the primary marks it down for this mount: further
// I/O goes to the backup (if configured) while the primary is re-probed
// every probeInterval, so a restarted server is rediscovered without any
// manual reset. Without a backup, attempts keep targeting the primary
// under the retry policy's exponential backoff. ctx is the causal context
// of the operation the I/O belongs to.
func (m *Mount) goIO(ctx trace.Ctx, nsd int, reqSize units.Bytes, pl ioPayload, onDone func(netsim.Response)) {
	m.issueIO(ctx, nsd, reqSize, &pl, 1, onDone)
}

// issueIO sends one attempt. Every attempt carries the same payload
// record, which the server only reads.
func (m *Mount) issueIO(ctx trace.Ctx, nsd int, reqSize units.Bytes, pl *ioPayload, attempt int, onDone func(netsim.Response)) {
	pol := m.c.cfg.Retry
	st := &m.fo[nsd]
	srv := m.info.Servers[nsd]
	backup := m.info.Backups[nsd]
	now := m.c.sim.Now()
	tr, _ := m.obs()

	// Target selection: the primary unless it is down and a backup
	// exists; a down primary is still probed once per interval so its
	// recovery is noticed.
	probing := false
	callCtx := ctx
	var probeSID int64
	var probeStart sim.Time
	onPrimary := true
	if st.down && backup != nil {
		if now >= st.nextProbe {
			probing = true
			st.nextProbe = now + probeInterval
			if tr != nil {
				probeSID = tr.NewSpanID()
				probeStart = now
				callCtx = trace.Ctx{Op: ctx.Op, Parent: probeSID}
			}
		} else {
			srv = backup
			onPrimary = false
		}
	}

	m.c.EP.GoDeadline(callCtx, srv.EP, m.svc.nsd, reqSize, pl, pol.Deadline, func(r netsim.Response) {
		done := m.c.sim.Now()
		if probing && tr != nil {
			result := "up"
			if transientIO(r.Err) {
				result = "down"
			}
			tr.SpanCtx(ctx, probeSID, "failover", "probe", m.c.id,
				int64(probeStart), int64(done),
				trace.S("result", result), trace.I("nsd", int64(nsd)))
		}
		if r.Err == nil || !transientIO(r.Err) {
			if onPrimary && st.down && r.Err == nil {
				st.down = false
				m.obsFailover(&m.st.PrimaryUps, "primary_up", nsd)
			}
			onDone(r)
			return
		}
		// Transient failure.
		if onPrimary {
			if !st.down {
				st.down = true
				st.nextProbe = done + probeInterval
				m.obsFailover(&m.st.PrimaryDowns, "primary_down", nsd)
			}
			if backup != nil {
				// Fail over immediately; the backoff budget is for when
				// there is nowhere else to go.
				m.issueIO(ctx, nsd, reqSize, pl, attempt, onDone)
				return
			}
		}
		if attempt >= pol.Attempts() {
			onDone(r)
			return
		}
		gap := pol.Backoff(attempt)
		start := done
		m.c.sim.Post(sim.KindOther, gap, func() {
			if tr != nil && gap > 0 {
				tr.SpanCtx(ctx, 0, "retry", "backoff", m.c.id,
					int64(start), int64(m.c.sim.Now()),
					trace.I("attempt", int64(attempt)), trace.I("nsd", int64(nsd)))
			}
			m.issueIO(ctx, nsd, reqSize, pl, attempt+1, onDone)
		})
	})
}

// obsFailover counts a failover state change in *n and emits its instant.
func (m *Mount) obsFailover(n *uint64, what string, nsd int) {
	*n++
	if tr, _ := m.obs(); tr != nil {
		tr.InstantCtx(trace.Ctx{}, "failover", what, m.c.id, int64(m.c.sim.Now()), trace.I("nsd", int64(nsd)))
	}
}

// Unmount flushes all dirty state, surrenders every token this client
// holds on the filesystem, and detaches the mount.
func (m *Mount) Unmount(p *sim.Proc) error {
	if m.detached {
		return fmt.Errorf("core: %s on %s: %w", m.Device, m.c.id, ErrNotMounted)
	}
	// Flush everything dirty across all inodes.
	m.flushDirty(m.pool.dirty, true)
	m.wgFl.Wait(p)
	// The first problem page in (inode, block) order decides the error,
	// so the same state always reports the same one.
	for _, pg := range m.pool.allPages() {
		if pg.err != nil {
			return pg.err
		}
		if pg.dirty {
			return fmt.Errorf("core: unmount: %w", ErrDirtyPages)
		}
	}
	resp := m.c.EP.Call(p, m.info.Manager, m.svc.token, 128,
		tokenOp{Op: "unmount", Cluster: m.c.cluster.Name, Client: m.c.id})
	if resp.Err != nil {
		return resp.Err
	}
	m.detached = true
	m.c.retired.add(m.Stats())
	delete(m.c.mounts, m.Device)
	return nil
}

// --- token cache ---

func (m *Mount) acquireToken(p *sim.Proc, ino int64, start, end units.Bytes, mode TokenMode) error {
	if m.toks.holderCovers(ino, m.c.id, start, end, mode) {
		return nil
	}
	// Required: the block-aligned access range. Desired: widened outward
	// to TokenChunk-block alignment, so sequential access pays one token
	// RPC per chunk and — crucially — a strided writer whose stride
	// matches the chunk (the MPI-IO pattern with TokenChunk = MPI block)
	// asks for exactly its own blocks and never conflicts.
	bs := m.info.BlockSize
	reqStart := (start / bs) * bs
	reqEnd := ((end + bs - 1) / bs) * bs
	cbs := bs * units.Bytes(m.c.cfg.TokenChunk)
	if cbs < bs {
		cbs = bs
	}
	desStart := (reqStart / cbs) * cbs
	desEnd := ((reqEnd + cbs - 1) / cbs) * cbs
	tr, reg := m.obs()
	issued := m.c.sim.Now()
	// The token span becomes the parent of the acquire RPC (and of any
	// revocations the manager fans out on our behalf), so token-wait time
	// is separable from wire time on the critical path.
	var tokSID int64
	var prev trace.Ctx
	if tr != nil {
		tokSID = tr.NewSpanID()
		prev = p.Ctx()
		p.SetCtx(trace.Ctx{Op: prev.Op, Parent: tokSID})
	}
	op := tokenOp{
		Op: "acquire", Cluster: m.c.cluster.Name, Client: m.c.id,
		Inode: ino, Start: reqStart, End: reqEnd, DStart: desStart, DEnd: desEnd, Mode: mode,
		Wide: m.c.cfg.WideTokens,
	}
	var resp netsim.Response
	routed := false
	if n := len(m.info.Shards); n > 0 {
		if k := inodeShard(n, ino); !m.shardDown[k] {
			resp = m.c.EP.Call(p, m.info.Shards[k], m.svc.shardToken[k], 128, op)
			routed = !shardUnavailable(resp.Err)
			if routed {
				m.st.ShardTokenAcquires++
			} else {
				m.shardDown[k] = true
				m.st.ShardFallbacks++
			}
		}
	}
	if !routed {
		resp = m.c.EP.Call(p, m.info.Manager, m.svc.token, 128, op)
	}
	if tr != nil {
		p.SetCtx(prev)
	}
	if resp.Err != nil {
		return resp.Err
	}
	g, ok := resp.Payload.(grantRange)
	if !ok {
		g = grantRange{reqStart, reqEnd}
	}
	if m.c.cfg.WideTokens && (g.Start < desStart || g.End > desEnd) {
		m.st.WideTokenGrants++
	}
	m.toks.insert(ino, m.c.id, g.Start, g.End, mode)
	m.st.TokenAcquires++
	if tr != nil || reg != nil {
		now := m.c.sim.Now()
		if tr != nil {
			tr.SpanCtx(prev, tokSID, "token", "acquire", m.c.id, int64(issued), int64(now),
				trace.I("ino", ino), trace.I("start", int64(g.Start)),
				trace.I("end", int64(g.End)), trace.S("mode", mode.String()))
		}
		if reg != nil {
			reg.Histogram("token.acquire_ns").Observe(float64(now - issued))
		}
	}
	return nil
}

// serveRevoke handles a token revocation from a manager: flush dirty data
// in the span, drop cached pages, shrink the token cache.
func (cl *Client) serveRevoke(p *sim.Proc, req *netsim.Request) netsim.Response {
	if cl.down {
		return netsim.Response{Err: fmt.Errorf("core: %s: %w", cl.id, ErrClientDown)}
	}
	rv, ok := req.Payload.(revokePayload)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: bad revoke payload %T", req.Payload)}
	}
	for _, m := range cl.mounts {
		if m.fsName != rv.FS {
			continue
		}
		m.flushRange(p, rv.Inode, rv.Start, rv.End)
		m.pool.invalidate(rv.Inode, rv.Start, rv.End, m.info.BlockSize)
		m.toks.carve(rv.Inode, cl.id, rv.Start, rv.End)
	}
	return netsim.Response{Size: 64}
}

// flushRange flushes every dirty page of the inode overlapping the span
// and waits until none of those pages is dirty or in flight. It must NOT
// wait on the mount's whole flush pipeline: a revoke victim that is
// writing elsewhere in the file keeps its pipeline full continuously, and
// a revoke ack stalled behind unrelated flushes stalls the requester's
// token acquire for as long as the victim keeps writing. Pages whose
// flush failed (sticky err) are left dirty and not retried here — the
// same semantics the old drain-everything wait had.
func (m *Mount) flushRange(p *sim.Proc, ino int64, start, end units.Bytes) {
	for {
		var sel []*page
		busy := false
		for _, pg := range m.pool.span(ino, start, end, m.info.BlockSize) {
			if pg.flushing {
				busy = true
				continue
			}
			if pg.dirty && pg.err == nil {
				sel = append(sel, pg)
			}
		}
		if len(sel) > 0 {
			m.flushDirty(sel, true)
			continue
		}
		if !busy {
			return
		}
		m.flSig.Wait(p)
	}
}

// --- page pool ---

type pageKey struct {
	ino int64
	idx int64
}

type page struct {
	key  pageKey
	ref  BlockRef
	data []byte // real contents when written/fetched with verify

	present  bool // media bytes cached
	hasBytes bool // data holds real contents
	dirty    bool
	dFrom    units.Bytes
	dTo      units.Bytes
	// gen counts content revisions. A flush snapshots it into flushGen at
	// issue time and may only mark the page clean if it is unchanged at
	// completion: a write landing while the flush is in flight — even one
	// that leaves the dirty interval identical — must keep the page dirty,
	// or the rewrite never reaches the media.
	gen, flushGen uint64

	err error // sticky I/O error, surfaced on wait/sync

	fetching   bool
	inPrefetch bool // the in-flight fetch was issued by the prefetcher
	prefetched bool // filled by prefetch, not yet claimed by a demand read
	stale      bool // discarded (truncate/remove) while I/O was in flight
	flushing   bool
	waiters    []func()

	// pins counts readers holding a reference across blocking waits
	// (readAt's page set). A pinned page evicted mid-read keeps its data
	// buffer until the last unpin — the reader still copies out of it —
	// and only then may the arena recycle it (orphaned marks the deferral).
	pins     int
	orphaned bool

	// lruPrev and lruNext link the page into its pool's LRU ring; both
	// are nil once it is unlinked.
	lruPrev, lruNext *page
}

// pagePool is the client cache: the page map, an LRU list, and an index
// that keeps pages in the order flush and revoke I/O must go out —
// (inode, block) — so no sweep scans or sorts the whole pool. That order
// is load-bearing: map order would make event timing, and traces,
// nondeterministic.
//
//   - byIno holds each inode's cached pages in block order, and inos the
//     inodes with any, ascending. The two mirror pages exactly: a re-add
//     over a stale page takes its slot, and remove unindexes only the
//     current occupant of a key.
//   - dirty holds every page with pg.dirty set, in (inode, block) order —
//     including a stale page still flushing after its key was re-added,
//     which sits beside the new occupant until its flush lands. Only
//     markDirty and markClean write pg.dirty.
//
// pagesOf, dirtyOf and span return windows of the index: valid until the
// next add, remove or mark, so a caller that does any of those while
// walking one must walk a copy.
type pagePool struct {
	capacity int
	pages    map[pageKey]*page
	byIno    map[int64][]*page
	inos     []int64
	dirty    []*page
	lru      page      // sentinel of the LRU ring: lru.lruNext is the most recently used
	arena    *bufArena // reclaims page.data on remove
	// unusedPrefetch counts prefetched pages dropped before any demand
	// read claimed them — the honest cost of speculation (see
	// MountStats.PrefetchUnused).
	unusedPrefetch uint64
}

func newPagePool(capacity int, arena *bufArena) *pagePool {
	if capacity < 4 {
		capacity = 4
	}
	pp := &pagePool{capacity: capacity, pages: make(map[pageKey]*page),
		byIno: make(map[int64][]*page), arena: arena}
	pp.lru.lruPrev, pp.lru.lruNext = &pp.lru, &pp.lru
	return pp
}

// lruFront links pg in as the most recently used page.
func (pp *pagePool) lruFront(pg *page) {
	root := &pp.lru
	pg.lruPrev, pg.lruNext = root, root.lruNext
	root.lruNext.lruPrev = pg
	root.lruNext = pg
}

// lruUnlink takes pg out of the LRU ring; an unlinked page is left as is.
func (pp *pagePool) lruUnlink(pg *page) {
	if pg.lruNext == nil {
		return
	}
	pg.lruPrev.lruNext, pg.lruNext.lruPrev = pg.lruNext, pg.lruPrev
	pg.lruPrev, pg.lruNext = nil, nil
}

// blockPos returns the position in pgs (one inode's pages, in block
// order) of the first page with block index >= idx.
func blockPos(pgs []*page, idx int64) int {
	return sort.Search(len(pgs), func(i int) bool { return pgs[i].key.idx >= idx })
}

// dirtyPos returns the position in the dirty index of the first page
// whose key is not below k.
func (pp *pagePool) dirtyPos(k pageKey) int {
	return sort.Search(len(pp.dirty), func(i int) bool {
		d := pp.dirty[i].key
		return d.ino > k.ino || d.ino == k.ino && d.idx >= k.idx
	})
}

func (pp *pagePool) get(k pageKey) *page {
	pg, ok := pp.pages[k]
	if !ok || pg.stale {
		// A stale page is doomed: its in-flight I/O completion will drop
		// it. Callers must not resurrect it — they get a fresh page.
		return nil
	}
	pp.lruUnlink(pg)
	pp.lruFront(pg)
	return pg
}

func (pp *pagePool) add(k pageKey, ref BlockRef) *page {
	pg := &page{key: k, ref: ref}
	pp.lruFront(pg)
	pp.pages[k] = pg
	pgs := pp.byIno[k.ino]
	if len(pgs) == 0 {
		i, _ := slices.BinarySearch(pp.inos, k.ino)
		pp.inos = slices.Insert(pp.inos, i, k.ino)
	}
	if i := blockPos(pgs, k.idx); i < len(pgs) && pgs[i].key.idx == k.idx {
		pgs[i] = pg // re-add over a stale page
	} else {
		pp.byIno[k.ino] = slices.Insert(pgs, i, pg)
	}
	return pg
}

// remove unlinks a page, charging a never-used prefetch if applicable.
// The occupant check guards against a stale page whose key has since
// been re-added: only the current occupant may be deleted by key, from
// the map and the index alike. The page's data buffer goes back to the
// arena — every discard path (evict, invalidate, truncate/remove discard,
// stale I/O landing) funnels through here — unless a reader still holds
// a pin, in which case the recycle is deferred to the last unpin.
func (pp *pagePool) remove(pg *page) {
	if pg.prefetched {
		pp.unusedPrefetch++
		pg.prefetched = false
	}
	pp.lruUnlink(pg)
	if pp.pages[pg.key] == pg {
		delete(pp.pages, pg.key)
		pgs := pp.byIno[pg.key.ino]
		i := blockPos(pgs, pg.key.idx)
		if pgs = slices.Delete(pgs, i, i+1); len(pgs) > 0 {
			pp.byIno[pg.key.ino] = pgs
		} else {
			delete(pp.byIno, pg.key.ino)
			j, _ := slices.BinarySearch(pp.inos, pg.key.ino)
			pp.inos = slices.Delete(pp.inos, j, j+1)
		}
	}
	if pg.data != nil {
		if pg.pins > 0 {
			pg.orphaned = true
		} else {
			pp.arena.putBlock(pg.data)
			pg.data = nil
		}
	}
}

// markDirty sets a clean pg dirty and files it in the dirty index.
func (pp *pagePool) markDirty(pg *page) {
	pg.dirty = true
	pp.dirty = slices.Insert(pp.dirty, pp.dirtyPos(pg.key), pg)
}

// markClean clears pg's dirty bit and drops it from the dirty index; a
// clean page is left as it is.
func (pp *pagePool) markClean(pg *page) {
	if !pg.dirty {
		return
	}
	pg.dirty = false
	i := pp.dirtyPos(pg.key)
	for pp.dirty[i] != pg {
		i++ // a stale page and the current occupant may share a key
	}
	pp.dirty = slices.Delete(pp.dirty, i, i+1)
}

// unpin releases a reader's hold on a page, completing any recycle that
// remove deferred while the page was pinned.
func (pp *pagePool) unpin(pg *page) {
	if pg.pins > 0 {
		pg.pins--
	}
	if pg.pins == 0 && pg.orphaned {
		pg.orphaned = false
		if pg.data != nil {
			pp.arena.putBlock(pg.data)
			pg.data = nil
		}
	}
}

// evict drops clean cold pages until within capacity.
func (pp *pagePool) evict() {
	for pg := pp.lru.lruPrev; len(pp.pages) > pp.capacity && pg != &pp.lru; {
		prev := pg.lruPrev
		if !pg.dirty && !pg.fetching && !pg.flushing {
			pp.remove(pg)
		}
		pg = prev
	}
}

// discard drops every page of the inode with block index >= fromIdx,
// regardless of dirtiness: the data is semantically gone (truncate,
// remove), so dirty intervals are abandoned rather than flushed. Pages
// with I/O in flight are marked stale and dropped when it lands, so a
// late-landing fetch can never fill a page whose block was freed.
func (pp *pagePool) discard(ino, fromIdx int64) {
	pgs := pp.byIno[ino]
	for _, pg := range slices.Clone(pgs[blockPos(pgs, fromIdx):]) {
		if !pg.flushing {
			pp.markClean(pg)
		}
		if pg.fetching || pg.flushing {
			pg.stale = true
			continue
		}
		pp.remove(pg)
	}
}

// pagesOf returns the inode's cached pages in block order.
func (pp *pagePool) pagesOf(ino int64) []*page { return pp.byIno[ino] }

// span returns the inode's cached pages overlapping [start, end), in
// block order.
func (pp *pagePool) span(ino int64, start, end, bs units.Bytes) []*page {
	pgs := pp.byIno[ino]
	pgs = pgs[blockPos(pgs, int64(start/bs)):]
	return pgs[:blockPos(pgs, int64((end+bs-1)/bs))]
}

// dirtyOf returns the inode's dirty pages in block order.
func (pp *pagePool) dirtyOf(ino int64) []*page {
	return pp.dirty[pp.dirtyPos(pageKey{ino: ino}):pp.dirtyPos(pageKey{ino: ino + 1})]
}

// allPages returns a copy of every cached page in (inode, block) order,
// for whole-mount sweeps.
func (pp *pagePool) allPages() []*page {
	out := make([]*page, 0, len(pp.pages))
	for _, ino := range pp.inos {
		out = append(out, pp.byIno[ino]...)
	}
	return out
}

func (pp *pagePool) invalidate(ino int64, start, end, bs units.Bytes) {
	for _, pg := range slices.Clone(pp.span(ino, start, end, bs)) {
		if !pg.dirty && !pg.fetching && !pg.flushing {
			pp.remove(pg)
		}
	}
}

// invalidateAll drops every clean, quiescent page (used when cached data
// must be re-fetched from the servers).
func (pp *pagePool) invalidateAll() {
	for _, pg := range pp.allPages() {
		if !pg.dirty && !pg.fetching && !pg.flushing {
			pp.remove(pg)
		}
	}
}

// Len returns the number of cached pages.
func (pp *pagePool) Len() int { return len(pp.pages) }
