package core

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"

	"gfs/internal/disk"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// Perm is a simplified POSIX mode: owner read/write, world read/write.
type Perm uint8

// Permission bits.
const (
	OwnerRead Perm = 1 << iota
	OwnerWrite
	WorldRead
	WorldWrite
)

// DefaultPerm is owner rw, world read — the common dataset case (NVO:
// one writer, many reading sites).
const DefaultPerm = OwnerRead | OwnerWrite | WorldRead

// Inode is one file or directory.
type Inode struct {
	Num     int64
	Name    string // final path element, for listings
	OwnerDN string
	Mode    Perm
	Dir     bool
	Size    units.Bytes
	Blocks  []BlockRef

	// blocksGen counts the shrinks of Blocks. Between two shrinks Blocks
	// only grows by append, so (Num, blocksGen) names one list whose
	// every prefix handed out stays valid (see blockView).
	blocksGen int64

	children map[string]int64
}

// blockView is an alloc or layout reply: the inode's block list up to
// the requested end, of which the refs from From on were asked for. Refs
// is a read-only view of Inode.Blocks with its capacity clipped, so no
// holder's append can write into the manager's array.
type blockView struct {
	Gen  int64
	From int64
	Refs []BlockRef
}

// view replies with indexes [from, end) of ino's block list. The wire
// size counts only the refs asked for.
func (ino *Inode) view(from, end int64) netsim.Response {
	return netsim.Response{
		Size:    units.Bytes(64 + 16*(end-from)),
		Payload: blockView{Gen: ino.blocksGen, From: from, Refs: ino.Blocks[:end:end]},
	}
}

// Attrs is the stat result shipped over the wire.
type Attrs struct {
	Inode   int64
	Name    string
	OwnerDN string
	Mode    Perm
	Dir     bool
	Size    units.Bytes
	NBlocks int
}

func (i *Inode) attrs() Attrs {
	return Attrs{Inode: i.Num, Name: i.Name, OwnerDN: i.OwnerDN, Mode: i.Mode,
		Dir: i.Dir, Size: i.Size, NBlocks: len(i.Blocks)}
}

// FileSystem is one GPFS-style file system owned by a cluster.
type FileSystem struct {
	Sim  *sim.Sim
	Name string

	BlockSize units.Bytes
	cluster   *Cluster

	nsds    []*NSD
	servers []*NSDServer
	mgr     *netsim.Endpoint // metadata + token manager

	inodes    map[int64]*Inode
	nextInode int64

	tokens *tokenTable
	lease  sim.Time // token lease; a dead client's tokens expire after this

	// shards is the partitioned metadata/token plane (see shard.go); nil
	// means the single-manager configuration. takeovers tracks in-flight
	// lease steal-backs by shard index so concurrent escalations wait on
	// one takeover instead of racing it.
	shards    []*tokenShard
	takeovers map[int]*sim.WaitGroup

	// gather is the filesystem half of write gathering (see
	// EnableGather): stripe-aligned allocation and per-NSD elevators.
	gather bool

	st FSStats // counted in place; Stats fills in the derived fields
}

// DefaultTokenLease is how long the manager waits for a revocation ack
// before declaring the holder dead and reclaiming its tokens.
const DefaultTokenLease = 5 * sim.Second

// SetTokenLease adjusts the token lease (mmchconfig leaseDuration).
func (fs *FileSystem) SetTokenLease(d sim.Time) {
	if d <= 0 {
		d = DefaultTokenLease
	}
	fs.lease = d
}

// metadata RPC service names.
const (
	metaService  = "meta"
	mountService = "mount.config"
)

// metaOp is the request body for the meta service.
type metaOp struct {
	Op      string // lookup | create | mkdir | stat | list | remove | alloc | setsize | truncate | rename | statfs
	Cluster string
	Caller  Identity
	Path    string
	Path2   string // rename destination
	Inode   int64
	From    int64 // alloc: first block index
	Count   int64 // alloc: number of blocks
	Size    units.Bytes
	Mode    Perm
}

// Identity names a calling user for permission checks.
type Identity struct {
	DN   string // canonical grid identity ("" = unauthenticated)
	Root bool   // site administrators bypass permission bits
}

// mountInfo is what a client learns at mount time.
type mountInfo struct {
	FS        string
	BlockSize units.Bytes
	NSDs      int
	Servers   []*NSDServer  // each NSD's primary server
	Backups   []*NSDServer  // each NSD's backup server (nil entries allowed)
	StripeW   []units.Bytes // each NSD's RAID stripe width (0 = unknown/none)
	Manager   *netsim.Endpoint
	Shards    []*netsim.Endpoint // metadata/token shard endpoints (nil = unsharded)
	Gather    bool               // write gathering on (see EnableGather)
}

// newFileSystem is invoked via Cluster.CreateFS.
func newFileSystem(c *Cluster, name string, blockSize units.Bytes) *FileSystem {
	fs := &FileSystem{
		Sim:       c.Sim,
		Name:      name,
		BlockSize: blockSize,
		cluster:   c,
		inodes:    make(map[int64]*Inode),
		nextInode: 2,
		tokens:    newTokenTable(),
		lease:     DefaultTokenLease,
		takeovers: make(map[int]*sim.WaitGroup),
	}
	root := &Inode{Num: 1, Name: "/", Dir: true, Mode: DefaultPerm | WorldWrite, children: map[string]int64{}}
	fs.inodes[1] = root
	return fs
}

// AddNSD attaches a store exported by the given server node.
func (fs *FileSystem) AddNSD(name string, store BlockStore, server *NSDServer) *NSD {
	n := &NSD{
		Name:      name,
		Store:     store,
		Primary:   server,
		blockSize: fs.BlockSize,
		alloc:     NewAllocator(int64(store.Capacity() / fs.BlockSize)),
		content:   make(map[int64][]byte),
	}
	if sw, ok := store.(stripeWidther); ok {
		n.stripeW = sw.StripeWidth()
	}
	if fs.gather {
		n.elev = newElevator(fs, n)
	}
	fs.nsds = append(fs.nsds, n)
	server.nsds = append(server.nsds, n)
	return n
}

// EnableGather turns on write gathering for the filesystem and every
// mount made after it (a mount reads the setting from its mount reply):
//   - Gathered transfers: a mount flushes contiguous dirty pages on one
//     NSD as a single multi-block RPC, held back until a full RAID stripe
//     accumulates so the array skips its parity read (Fig. 11's
//     write-path fix), and batches prefetches of consecutive blocks.
//   - Stripe alignment: the allocator hands out stripe-width groups of
//     consecutive file blocks as contiguous, stripe-aligned slot runs on
//     one NSD (then round-robin to the next NSD), instead of scattering
//     every block to a different NSD. A client gathering consecutive
//     dirty blocks then lands one contiguous full-stripe store write.
//   - Elevators: block I/O arriving at an NSD while its store is busy
//     queues, is sorted by store offset, and contiguous same-direction
//     requests merge into one submission.
//
// Off by default: per-block round-robin allocation, no queueing.
func (fs *FileSystem) EnableGather() {
	fs.gather = true
	for _, n := range fs.nsds {
		if n.elev == nil {
			n.elev = newElevator(fs, n)
		}
	}
}

// stripeGroup returns the stripe-align allocation group: the largest
// whole number of file-system blocks per RAID stripe across the NSDs.
func (fs *FileSystem) stripeGroup() int {
	g := 1
	for _, n := range fs.nsds {
		if n.stripeW > 0 && n.stripeW%fs.BlockSize == 0 {
			if k := int(n.stripeW / fs.BlockSize); k > g {
				g = k
			}
		}
	}
	return g
}

// NSDs returns the NSD count.
func (fs *FileSystem) NSDs() int { return len(fs.nsds) }

// NSDList returns the filesystem's NSDs in creation order (the order
// striping rotates over them).
func (fs *FileSystem) NSDList() []*NSD { return fs.nsds }

// Servers returns the NSD servers.
func (fs *FileSystem) Servers() []*NSDServer { return fs.servers }

// Capacity returns total usable bytes.
func (fs *FileSystem) Capacity() units.Bytes {
	var c units.Bytes
	for _, n := range fs.nsds {
		c += units.Bytes(n.Blocks()) * fs.BlockSize
	}
	return c
}

// FreeBytes returns unallocated bytes.
func (fs *FileSystem) FreeBytes() units.Bytes {
	var c units.Bytes
	for _, n := range fs.nsds {
		c += units.Bytes(n.FreeBlocks()) * fs.BlockSize
	}
	return c
}

// MetaOps returns the count of metadata operations served.
func (fs *FileSystem) MetaOps() uint64 { return fs.st.MetaOps }

// checkClusterAccess enforces the mmauth per-FS grant for remote clusters.
func (fs *FileSystem) checkClusterAccess(cluster string, op disk.Op) error {
	if cluster == fs.cluster.Name {
		return nil
	}
	a := fs.cluster.Registry.AccessFor(fs.Name, cluster)
	if op == disk.Read && !a.CanRead() {
		return fmt.Errorf("core: cluster %s has no read grant on %s: %w", cluster, fs.Name, ErrPermission)
	}
	if op == disk.Write && !a.CanWrite() {
		return fmt.Errorf("core: cluster %s has no write grant on %s: %w", cluster, fs.Name, ErrPermission)
	}
	return nil
}

// cleanPath normalizes any user-supplied path to the canonical absolute
// form every metadata operation works in: rooted, no ".", "..", empty, or
// duplicate segments. Relative paths are interpreted from the root, and
// ".." never escapes it. The normalization is idempotent (fuzzed in
// FuzzPath). A path already in that form, the common case, is returned
// as is, with no copy.
func cleanPath(p string) string {
	if isCleanPath(p) {
		return p
	}
	return path.Clean("/" + p)
}

// isCleanPath reports whether p is exactly what path.Clean("/"+p) would
// return: "/", or "/"-separated segments none of which is empty, "." or
// "..", with no trailing "/".
func isCleanPath(p string) bool {
	if p == "/" {
		return true
	}
	if len(p) < 2 || p[0] != '/' || p[len(p)-1] == '/' {
		return false
	}
	seg := 1
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		switch p[seg:i] {
		case "", ".", "..":
			return false
		}
		seg = i + 1
	}
	return true
}

// resolve walks a path to an inode.
func (fs *FileSystem) resolve(p string) (*Inode, error) {
	p = cleanPath(p)
	cur := fs.inodes[1]
	if p == "/" {
		return cur, nil
	}
	// Walk the segments of the clean path in place, without splitting it.
	for rest := p[1:]; ; {
		part, tail, more := strings.Cut(rest, "/")
		if !cur.Dir {
			return nil, fmt.Errorf("core: %s: %w", cur.Name, ErrNotDir)
		}
		num, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("core: %s: %w", p, ErrNotExist)
		}
		cur = fs.inodes[num]
		if !more {
			return cur, nil
		}
		rest = tail
	}
}

// parentOf finds the directory containing an inode (the root is its own
// parent). Linear over inodes; used only by rename's cycle check.
func (fs *FileSystem) parentOf(num int64) *Inode {
	if num == 1 {
		return fs.inodes[1]
	}
	for _, ino := range fs.inodes {
		if !ino.Dir {
			continue
		}
		for _, child := range ino.children {
			if child == num {
				return ino
			}
		}
	}
	return nil
}

// resolveParent returns the directory containing p and the final element.
func (fs *FileSystem) resolveParent(p string) (*Inode, string, error) {
	p = cleanPath(p)
	dir, base := path.Split(p)
	if base == "" {
		return nil, "", fmt.Errorf("core: cannot operate on root")
	}
	// dir is clean but for its trailing "/"; resolve it without, so
	// cleanPath takes its no-copy path.
	parent, err := fs.resolve(dir[:max(len(dir)-1, 1)])
	if err != nil {
		return nil, "", err
	}
	if !parent.Dir {
		return nil, "", fmt.Errorf("core: %s: %w", dir, ErrNotDir)
	}
	return parent, base, nil
}

func (i *Inode) canRead(id Identity) bool {
	if id.Root || i.Mode&WorldRead != 0 {
		return true
	}
	return id.DN != "" && id.DN == i.OwnerDN && i.Mode&OwnerRead != 0
}

func (i *Inode) canWrite(id Identity) bool {
	if id.Root || i.Mode&WorldWrite != 0 {
		return true
	}
	return id.DN != "" && id.DN == i.OwnerDN && i.Mode&OwnerWrite != 0
}

// serveMeta handles the metadata service on the coordinator. It runs in
// simulated time only through the RPC transport; the operations
// themselves are instantaneous, matching the paper's observation that
// WAN-GFS performance is a data-path question. With shards configured,
// a shard-homed operation arriving here is an escalation — the client
// fell back because the home shard refused — so the coordinator steals
// the shard's authority first. Cross-shard renames land here by design
// (the one conflict the partitioning cannot localize) and count as
// escalations without triggering a steal.
func (fs *FileSystem) serveMeta(p *sim.Proc, req *netsim.Request) netsim.Response {
	op, ok := req.Payload.(metaOp)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: bad meta payload %T", req.Payload)}
	}
	if n := len(fs.shards); n > 0 {
		if k := metaRoute(n, op); k >= 0 {
			fs.shards[k].st.Escalations++
			fs.stealBack(p, k)
		} else if op.Op == "rename" {
			fs.shards[pathShard(n, op.Path)].st.Escalations++
		}
	}
	return fs.serveMetaOp(p, op, nil)
}

// serveMetaOp is the metadata implementation shared by the coordinator
// (sh == nil) and every shard. All shards operate on the filesystem's
// single namespace — the simulated wire in front of each endpoint is
// the serialization point being distributed — but block allocation is
// genuinely partitioned: a shard serves it from bulk regions it drew
// from the central allocation maps.
func (fs *FileSystem) serveMetaOp(p *sim.Proc, op metaOp, sh *tokenShard) netsim.Response {
	fs.st.MetaOps++
	dop := disk.Read
	switch op.Op {
	case "create", "mkdir", "remove", "alloc", "setsize", "truncate", "rename", "chmod", "chown":
		dop = disk.Write
	}
	if err := fs.checkClusterAccess(op.Cluster, dop); err != nil {
		return netsim.Response{Err: err}
	}
	switch op.Op {
	case "lookup", "stat":
		var ino *Inode
		if op.Path == "" && op.Inode != 0 {
			ino = fs.inodes[op.Inode]
			if ino == nil {
				return netsim.Response{Size: 64, Err: fmt.Errorf("core: inode %d: %w", op.Inode, ErrNotExist)}
			}
		} else {
			var err error
			ino, err = fs.resolve(op.Path)
			if err != nil {
				return netsim.Response{Size: 64, Err: err}
			}
		}
		return netsim.Response{Size: 256, Payload: ino.attrs()}

	case "create", "mkdir":
		parent, base, err := fs.resolveParent(op.Path)
		if err != nil {
			return netsim.Response{Size: 64, Err: err}
		}
		if !parent.canWrite(op.Caller) {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path, ErrPermission)}
		}
		if _, exists := parent.children[base]; exists {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path, ErrExist)}
		}
		ino := &Inode{
			Num: fs.nextInode, Name: base, OwnerDN: op.Caller.DN,
			Mode: op.Mode, Dir: op.Op == "mkdir",
		}
		if ino.Mode == 0 {
			ino.Mode = DefaultPerm
		}
		if ino.Dir {
			ino.children = map[string]int64{}
		}
		fs.nextInode++
		fs.inodes[ino.Num] = ino
		parent.children[base] = ino.Num
		return netsim.Response{Size: 256, Payload: ino.attrs()}

	case "list":
		ino, err := fs.resolve(op.Path)
		if err != nil {
			return netsim.Response{Size: 64, Err: err}
		}
		if !ino.Dir {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path, ErrNotDir)}
		}
		if !ino.canRead(op.Caller) {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path, ErrPermission)}
		}
		var out []Attrs
		for _, num := range ino.children {
			out = append(out, fs.inodes[num].attrs())
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return netsim.Response{Size: units.Bytes(64 + 128*len(out)), Payload: out}

	case "remove":
		parent, base, err := fs.resolveParent(op.Path)
		if err != nil {
			return netsim.Response{Size: 64, Err: err}
		}
		num, ok := parent.children[base]
		if !ok {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path, ErrNotExist)}
		}
		ino := fs.inodes[num]
		// Removal needs a writable parent, and — sticky-directory style —
		// the caller must own the file, own the directory, or be root,
		// unless the file itself is world-writable.
		ownsFile := op.Caller.DN != "" && op.Caller.DN == ino.OwnerDN
		ownsDir := op.Caller.DN != "" && op.Caller.DN == parent.OwnerDN
		if !parent.canWrite(op.Caller) ||
			!(op.Caller.Root || ownsFile || ownsDir || ino.Mode&WorldWrite != 0) {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path, ErrPermission)}
		}
		if ino.Dir && len(ino.children) > 0 {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path, ErrNotEmpty)}
		}
		fs.freeBlocks(ino, 0)
		delete(parent.children, base)
		delete(fs.inodes, num)
		fs.dropInodeTokens(num)
		return netsim.Response{Size: 64}

	case "alloc":
		ino := fs.inodes[op.Inode]
		if ino == nil || ino.Dir {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: alloc on inode %d: %w", op.Inode, ErrNotExist)}
		}
		if err := fs.allocBlocks(ino, op.From, op.Count, sh); err != nil {
			return netsim.Response{Size: 64, Err: err}
		}
		return ino.view(op.From, op.From+op.Count)

	case "layout":
		ino := fs.inodes[op.Inode]
		if ino == nil || ino.Dir {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: layout on inode %d: %w", op.Inode, ErrNotExist)}
		}
		from, count := op.From, op.Count
		if from < 0 {
			from = 0
		}
		if from > int64(len(ino.Blocks)) {
			from = int64(len(ino.Blocks))
		}
		if from+count > int64(len(ino.Blocks)) {
			count = int64(len(ino.Blocks)) - from
		}
		return ino.view(from, from+count)

	case "setsize":
		ino := fs.inodes[op.Inode]
		if ino == nil {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: setsize on inode %d: %w", op.Inode, ErrNotExist)}
		}
		if op.Size > ino.Size {
			ino.Size = op.Size
		}
		return netsim.Response{Size: 64}

	case "chmod":
		ino, err := fs.resolve(op.Path)
		if err != nil {
			return netsim.Response{Size: 64, Err: err}
		}
		if !op.Caller.Root && (op.Caller.DN == "" || op.Caller.DN != ino.OwnerDN) {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: chmod %s: not owner: %w", op.Path, ErrPermission)}
		}
		ino.Mode = op.Mode
		return netsim.Response{Size: 64}

	case "chown":
		ino, err := fs.resolve(op.Path)
		if err != nil {
			return netsim.Response{Size: 64, Err: err}
		}
		// Like POSIX, only root may give a file away.
		if !op.Caller.Root {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: chown %s: %w", op.Path, ErrPermission)}
		}
		ino.OwnerDN = op.Path2 // new owner DN travels in Path2
		return netsim.Response{Size: 64}

	case "rename":
		src, srcBase, err := fs.resolveParent(op.Path)
		if err != nil {
			return netsim.Response{Size: 64, Err: err}
		}
		num, ok := src.children[srcBase]
		if !ok {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path, ErrNotExist)}
		}
		dst, dstBase, err := fs.resolveParent(op.Path2)
		if err != nil {
			return netsim.Response{Size: 64, Err: err}
		}
		if !src.canWrite(op.Caller) || !dst.canWrite(op.Caller) {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: rename: %w", ErrPermission)}
		}
		if _, exists := dst.children[dstBase]; exists {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: %s: %w", op.Path2, ErrExist)}
		}
		// A directory must not move under itself.
		ino := fs.inodes[num]
		if ino.Dir {
			for cur := dst; cur != nil; {
				if cur == ino {
					return netsim.Response{Size: 64, Err: fmt.Errorf("core: rename: would create a cycle")}
				}
				parent := fs.parentOf(cur.Num)
				if parent == cur {
					break
				}
				cur = parent
			}
		}
		delete(src.children, srcBase)
		dst.children[dstBase] = num
		ino.Name = dstBase
		return netsim.Response{Size: 64}

	case "statfs":
		return netsim.Response{Size: 256, Payload: FSStat{
			FS: fs.Name, BlockSize: fs.BlockSize,
			Capacity: fs.Capacity(), Free: fs.FreeBytes(),
			NSDs: len(fs.nsds), Inodes: len(fs.inodes),
		}}

	case "truncate":
		ino := fs.inodes[op.Inode]
		if ino == nil || ino.Dir {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: truncate on inode %d: %w", op.Inode, ErrNotExist)}
		}
		if !ino.canWrite(op.Caller) {
			return netsim.Response{Size: 64, Err: fmt.Errorf("core: truncate: %w", ErrPermission)}
		}
		keep := int64((op.Size + fs.BlockSize - 1) / fs.BlockSize)
		fs.freeBlocks(ino, keep)
		ino.Size = op.Size
		return netsim.Response{Size: 64}
	}
	return netsim.Response{Err: fmt.Errorf("core: unknown meta op %q", op.Op)}
}

// allocBlocks extends an inode's block list so indexes [from, from+count)
// exist, allocating slots round-robin across NSDs with spill to the next
// NSD when one fills. With stripe alignment on, whole groups of
// consecutive blocks land as one stripe-aligned contiguous slot run on
// one NSD (falling back to per-block allocation when no run is free).
// When a shard serves the allocation (sh != nil, per-block striping
// only), slots come from the shard's bulk regions instead of the
// central map's next-fit scan.
func (fs *FileSystem) allocBlocks(ino *Inode, from, count int64, sh *tokenShard) error {
	striper := Striper{NSDs: len(fs.nsds), First: int(ino.Num) % len(fs.nsds)}
	if fs.gather {
		striper.Group = fs.stripeGroup()
	}
	g := int64(striper.Group)
	if g < 1 {
		g = 1
	}
	if n := from + count - int64(len(ino.Blocks)); n > 0 {
		ino.Blocks = slices.Grow(ino.Blocks, int(n))
	}
	for int64(len(ino.Blocks)) < from+count {
		idx := int64(len(ino.Blocks))
		first := striper.NSDFor(idx)
		if runLen := g - idx%g; runLen > 1 {
			placed := false
			for k := 0; k < len(fs.nsds); k++ {
				ni := (first + k) % len(fs.nsds)
				align := int64(1)
				if runLen == g {
					align = g
				}
				if slot, ok := fs.nsds[ni].alloc.AllocRun(runLen, align); ok {
					for j := int64(0); j < runLen; j++ {
						ino.Blocks = append(ino.Blocks, BlockRef{NSD: ni, Block: slot + j})
					}
					placed = true
					break
				}
			}
			if placed {
				continue
			}
			// No NSD has a free run: degrade to per-block allocation.
		}
		var ref = NilBlock
		for k := 0; k < len(fs.nsds); k++ {
			ni := (first + k) % len(fs.nsds)
			var slot int64
			var ok bool
			if sh != nil && g == 1 {
				slot, ok = sh.allocSlot(fs.nsds[ni].alloc, ni)
			} else {
				slot, ok = fs.nsds[ni].alloc.Alloc()
			}
			if ok {
				ref = BlockRef{NSD: ni, Block: slot}
				break
			}
		}
		if !ref.Valid() {
			return fmt.Errorf("core: %s: %w", fs.Name, ErrNoSpace)
		}
		ino.Blocks = append(ino.Blocks, ref)
	}
	return nil
}

// freeBlocks releases block slots beyond index keep and clears content.
// A shrink starts a new generation and clips the list's capacity, so the
// next append moves to a fresh array and views handed out before keep
// their contents.
func (fs *FileSystem) freeBlocks(ino *Inode, keep int64) {
	if keep >= int64(len(ino.Blocks)) {
		return
	}
	for i := keep; i < int64(len(ino.Blocks)); i++ {
		ref := ino.Blocks[i]
		if ref.Valid() {
			fs.nsds[ref.NSD].alloc.Release(ref.Block)
			delete(fs.nsds[ref.NSD].content, ref.Block)
		}
	}
	ino.Blocks = ino.Blocks[:keep:keep]
	ino.blocksGen++
}

// mountReq asks for mount configuration and registers the client for
// token revocation callbacks.
type mountReq struct {
	Cluster string
	Client  *Client
}

// serveMount returns mount configuration to an authenticated cluster.
func (fs *FileSystem) serveMount(p *sim.Proc, req *netsim.Request) netsim.Response {
	mr, ok := req.Payload.(mountReq)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: bad mount payload %T", req.Payload)}
	}
	cluster := mr.Cluster
	if err := fs.checkClusterAccess(cluster, disk.Read); err != nil {
		return netsim.Response{Err: err}
	}
	if cluster != fs.cluster.Name && !fs.cluster.Authenticated(cluster) {
		return netsim.Response{Err: fmt.Errorf("core: cluster %s has not authenticated to %s: %w", cluster, fs.cluster.Name, ErrPermission)}
	}
	if mr.Client != nil {
		fs.cluster.clients[mr.Client.id] = mr.Client
	}
	servers := make([]*NSDServer, len(fs.nsds))
	backups := make([]*NSDServer, len(fs.nsds))
	stripeW := make([]units.Bytes, len(fs.nsds))
	for i, n := range fs.nsds {
		servers[i] = n.Primary
		backups[i] = n.Backup
		stripeW[i] = n.stripeW
	}
	var shardEPs []*netsim.Endpoint
	for _, sh := range fs.shards {
		shardEPs = append(shardEPs, sh.EP)
	}
	return netsim.Response{
		Size: units.Bytes(256 + 64*len(fs.nsds) + 32*len(fs.shards)),
		Payload: mountInfo{
			FS: fs.Name, BlockSize: fs.BlockSize, NSDs: len(fs.nsds),
			Servers: servers, Backups: backups, StripeW: stripeW, Manager: fs.mgr,
			Shards: shardEPs, Gather: fs.gather,
		},
	}
}

// SetBackup designates a second server for an NSD; clients fail over to
// it when the primary is down (mmchnsd).
func (fs *FileSystem) SetBackup(n *NSD, server *NSDServer) {
	if server.fs != fs {
		panic(fmt.Sprintf("core: backup server %s belongs to another filesystem", server.Name))
	}
	n.Backup = server
	server.nsds = append(server.nsds, n)
}
