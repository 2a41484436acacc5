package core

import (
	"errors"
	"fmt"
	"sort"

	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// The sharded metadata/token plane. One filesystem manager serializes
// every open/create/allocate — invisible for a handful of streaming MPI
// ranks, fatal for a metadata storm over a million-file namespace, where
// per-file protocol overhead dominates (the NorduGrid small-file
// observation). SetTokenShards partitions the plane GPFS-style:
//
//   - Token space: every inode has a home shard (inode number mod shard
//     count) that owns its byte-range token table outright. Acquire,
//     release and revoke traffic for the inode goes to the home shard's
//     endpoint — hosted on an NSD server node, so the load spreads over
//     the server fleet's NICs instead of funnelling into the manager's.
//   - Metadata: path-addressed operations (create, stat, remove, ...)
//     hash the cleaned path onto a shard. Hashing the full path stripes
//     large directories: a create storm on one directory fans out over
//     every shard instead of queueing on one manager.
//   - Allocation: each shard draws bulk slot regions from the NSD
//     allocation maps and serves block allocations from them, so small
//     files allocate without touching the central authority.
//
// The central manager remains the coordinator: it serves the operations
// that inherently span shards (statfs, cross-shard renames) and is the
// fallback authority when a shard's home server dies. On the first
// escalated operation for a dead shard, the coordinator waits out the
// token lease (the shard's authority is covered by the same lease a
// client's tokens are) and then merges the shard's token table into its
// own — lease steal-back. The merge preserves every grant, so client
// token caches stay valid across the takeover; the shard is marked
// stolen permanently and refuses further traffic with ErrShardMoved even
// after its server recovers, keeping authority in exactly one place.
//
// Shard endpoints share the process with the coordinator (the simulated
// wire is the only serialization point), so handlers may reach across
// tables where an operation inherently spans them (remove dropping a
// path-homed file's inode-homed tokens, unmount dropping a client's
// holdings everywhere); each handler runs atomically per event, so these
// cross-table touches need no locking and stay deterministic.

// tokenShard is one partition of the metadata/token plane, homed on an
// NSD server node.
type tokenShard struct {
	fs    *FileSystem
	idx   int
	home  *NSDServer       // server whose node hosts this shard
	EP    *netsim.Endpoint // the home server's endpoint (shared NIC)
	table *tokenTable      // token state for inodes homed here

	// stolen is set when the coordinator completes lease steal-back;
	// a stolen shard refuses all traffic permanently (no fail-back).
	stolen bool

	// regions are per-NSD bulk allocation runs drawn from the central
	// allocation maps; block allocation served by this shard comes from
	// them without consulting the coordinator.
	regions []allocRegion

	st ShardStats
}

// allocRegion is a half-open run [next, end) of reserved slots on one NSD.
type allocRegion struct{ next, end int64 }

// shardRegionBlocks is how many slots a shard reserves per region draw.
const shardRegionBlocks = 32

// ErrShardMoved-carrying refusals use this label.
func (sh *tokenShard) label() string {
	return fmt.Sprintf("%s.s%d", sh.fs.Name, sh.idx)
}

// shardSvcName is the FS- and shard-qualified service name, mirroring
// FileSystem.svc for the coordinator's services.
func shardSvcName(base string, k int, fsName string) string {
	return fmt.Sprintf("%s.s%d.%s", base, k, fsName)
}

// SetTokenShards partitions the metadata/token plane over n shards,
// placed round-robin on the filesystem's NSD servers. Call after
// SetManager and AddServer, before any client mounts. n <= 0 leaves the
// plane unsharded (the single-manager configuration is byte-for-byte
// unchanged).
func (fs *FileSystem) SetTokenShards(n int) {
	if n <= 0 {
		return
	}
	if fs.mgr == nil {
		panic(fmt.Sprintf("core: %s: SetTokenShards before SetManager", fs.Name))
	}
	if len(fs.servers) == 0 {
		panic(fmt.Sprintf("core: %s: SetTokenShards with no NSD servers", fs.Name))
	}
	if len(fs.shards) > 0 {
		panic(fmt.Sprintf("core: %s already sharded", fs.Name))
	}
	for k := 0; k < n; k++ {
		sh := &tokenShard{
			fs:      fs,
			idx:     k,
			home:    fs.servers[k%len(fs.servers)],
			table:   newTokenTable(),
			regions: make([]allocRegion, len(fs.nsds)),
		}
		sh.EP = sh.home.EP
		sh.EP.Handle(shardSvcName(metaService, k, fs.Name), sh.serveMeta)
		sh.EP.Handle(shardSvcName(tokenService, k, fs.Name), sh.serveToken)
		fs.shards = append(fs.shards, sh)
	}
}

// pathShard maps a path onto a shard: FNV-1a over the canonical path.
// Hashing the whole path (not the directory) is what stripes a large
// directory's create storm across every shard.
func pathShard(n int, p string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range []byte(cleanPath(p)) {
		h ^= uint32(c)
		h *= prime32
	}
	return int(h % uint32(n))
}

// inodeShard maps an inode onto its home shard.
func inodeShard(n int, ino int64) int {
	if ino < 0 {
		ino = -ino
	}
	return int(ino % int64(n))
}

// metaRoute returns the shard that serves a metadata operation, or -1
// for the coordinator. Pure in (n, op): the client and the coordinator
// compute the same answer. Coordinator-native operations are statfs
// (inherently global) and cross-shard renames (the one conflict the
// partitioning cannot localize — the escalation path by design).
func metaRoute(n int, op metaOp) int {
	if n <= 0 {
		return -1
	}
	switch op.Op {
	case "lookup", "stat":
		if op.Path == "" && op.Inode != 0 {
			return inodeShard(n, op.Inode)
		}
		return pathShard(n, op.Path)
	case "create", "mkdir", "list", "remove", "chmod", "chown":
		return pathShard(n, op.Path)
	case "alloc", "layout", "setsize", "truncate":
		return inodeShard(n, op.Inode)
	case "rename":
		if a, b := pathShard(n, op.Path), pathShard(n, op.Path2); a == b {
			return a
		}
		return -1
	}
	return -1
}

// shardUnavailable classifies errors that make a client abandon a shard
// for the coordinator: the home server refusing (down) or the shard's
// authority having moved. Once either is seen the shard is dead to the
// client permanently — a stolen shard never takes its authority back.
func shardUnavailable(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrServerDown) || errors.Is(err, ErrShardMoved)
}

// refuse builds the shard's refusal response, or nil when it can serve.
func (sh *tokenShard) refuse() *netsim.Response {
	if sh.stolen {
		return &netsim.Response{Err: fmt.Errorf("core: %s: %w", sh.label(), ErrShardMoved)}
	}
	if sh.home.Down() {
		return &netsim.Response{Err: fmt.Errorf("core: %s on %s: %w", sh.label(), sh.home.Name, ErrServerDown)}
	}
	return nil
}

// serveMeta is the shard-side metadata handler.
func (sh *tokenShard) serveMeta(p *sim.Proc, req *netsim.Request) netsim.Response {
	op, ok := req.Payload.(metaOp)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: bad meta payload %T", req.Payload)}
	}
	if r := sh.refuse(); r != nil {
		return *r
	}
	return sh.fs.serveMetaOp(p, op, sh)
}

// serveToken is the shard-side token handler.
func (sh *tokenShard) serveToken(p *sim.Proc, req *netsim.Request) netsim.Response {
	op, ok := req.Payload.(tokenOp)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: bad token payload %T", req.Payload)}
	}
	if r := sh.refuse(); r != nil {
		return *r
	}
	return sh.fs.serveTokenOp(p, op, sh)
}

// allocSlot serves one block slot on NSD ni from the shard's bulk
// region, drawing a fresh region from the central allocation map when
// the current one is spent. Slots are handed to files one at a time;
// frees go straight back to the central map (Release), so a region's
// unconsumed tail is the only reserved-but-idle capacity, bounded by
// shards x NSDs x shardRegionBlocks.
func (sh *tokenShard) allocSlot(a *Allocator, ni int) (int64, bool) {
	r := &sh.regions[ni]
	if r.next >= r.end {
		if s, ok := a.AllocRun(shardRegionBlocks, 1); ok {
			r.next, r.end = s, s+shardRegionBlocks
		} else {
			// Too fragmented for a region: degrade to single slots.
			return a.Alloc()
		}
	}
	s := r.next
	r.next++
	return s, true
}

// stealBack is the coordinator's lease steal-back: called (from a
// handler proc) before serving an operation homed on shard k. The first
// caller waits out the token lease and merges the shard's token table
// into the coordinator's; later callers wait on the same takeover.
// Merging preserves every grant, so clients' cached tokens stay valid —
// no revoke broadcast is needed. The shard is marked stolen permanently.
func (fs *FileSystem) stealBack(p *sim.Proc, k int) {
	sh := fs.shards[k]
	if sh.stolen {
		return
	}
	if wg := fs.takeovers[k]; wg != nil {
		wg.Wait(p)
		return
	}
	wg := sim.NewWaitGroup(fs.Sim)
	wg.Add(1)
	fs.takeovers[k] = wg
	fs.obsTokenEvent(&fs.st.ShardLeaseWaits, "shard_lease_wait", sh.home.Name, int64(k), 0, 0)
	// The shard's authority is covered by the same lease that covers a
	// client's tokens: nothing it granted can outlive this wait without
	// the coordinator hearing about it.
	p.Sleep(fs.lease)
	moved := 0
	inos := make([]int64, 0, len(sh.table.byInode))
	for ino := range sh.table.byInode {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		rs := sh.table.byInode[ino]
		merged := append(fs.tokens.byInode[ino], rs...)
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].Start != merged[j].Start {
				return merged[i].Start < merged[j].Start
			}
			return merged[i].Holder < merged[j].Holder
		})
		fs.tokens.byInode[ino] = merged
		moved += len(rs)
	}
	for ino := range sh.table.contended {
		fs.tokens.contended[ino] = true
	}
	sh.table.byInode = make(map[int64][]heldRange)
	sh.table.contended = make(map[int64]bool)
	sh.st.Steals += uint64(moved)
	sh.stolen = true
	delete(fs.takeovers, k)
	wg.Done()
	fs.obsTokenEvent(&fs.st.ShardSteals, "shard_steal", sh.home.Name, int64(k), 0, units.Bytes(moved))
}

// dropInodeTokens forgets a removed file's tokens wherever they live:
// the remove is path-homed but the tokens are inode-homed, so the two
// can sit on different shards.
func (fs *FileSystem) dropInodeTokens(num int64) {
	fs.tokens.dropInode(num)
	for _, sh := range fs.shards {
		sh.table.dropInode(num)
	}
}
