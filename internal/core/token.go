package core

import (
	"fmt"
	"sort"

	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// TokenMode is the lock strength of a byte-range token.
type TokenMode int

// Token modes.
const (
	TokShared TokenMode = iota
	TokExclusive
)

func (m TokenMode) String() string {
	if m == TokExclusive {
		return "xw"
	}
	return "ro"
}

// heldRange is one granted byte-range token.
type heldRange struct {
	Start, End units.Bytes // [Start, End)
	Mode       TokenMode
	Holder     string // client ID
}

// tokenTable is the manager-side state: granted ranges per inode.
type tokenTable struct {
	byInode map[int64][]heldRange
	// contended marks inodes where an acquisition has ever had to revoke
	// another holder. Opportunistic widening is suppressed there: a lone
	// sequential writer keeps taking one balloon grant for the whole file,
	// but the moment a second writer shows up the manager falls back to
	// exact desired-range grants — otherwise strided writers leapfrog each
	// other into the unclaimed tail and every acquisition pays a revoke.
	contended map[int64]bool
}

func newTokenTable() *tokenTable {
	return &tokenTable{byInode: make(map[int64][]heldRange), contended: make(map[int64]bool)}
}

func overlaps(aS, aE, bS, bE units.Bytes) bool { return aS < bE && bS < aE }

// conflicts returns the holders (other than requester) whose ranges
// conflict with the request, with the conflicting span per holder.
func (t *tokenTable) conflicts(inode int64, start, end units.Bytes, mode TokenMode, requester string) map[string][2]units.Bytes {
	out := map[string][2]units.Bytes{}
	for _, r := range t.byInode[inode] {
		if r.Holder == requester || !overlaps(r.Start, r.End, start, end) {
			continue
		}
		if mode == TokShared && r.Mode == TokShared {
			continue
		}
		span, ok := out[r.Holder]
		if !ok {
			out[r.Holder] = [2]units.Bytes{r.Start, r.End}
			continue
		}
		if r.Start < span[0] {
			span[0] = r.Start
		}
		if r.End > span[1] {
			span[1] = r.End
		}
		out[r.Holder] = span
	}
	return out
}

// carve removes [start,end) of a holder's ranges on an inode, splitting
// partially-covered ranges.
func (t *tokenTable) carve(inode int64, holder string, start, end units.Bytes) {
	in := t.byInode[inode]
	out := in[:0]
	for _, r := range in {
		if r.Holder != holder || !overlaps(r.Start, r.End, start, end) {
			out = append(out, r)
			continue
		}
		if r.Start < start {
			out = append(out, heldRange{r.Start, start, r.Mode, r.Holder})
		}
		if r.End > end {
			out = append(out, heldRange{end, r.End, r.Mode, r.Holder})
		}
	}
	if len(out) == 0 {
		// Don't leak an empty entry: a release-heavy workload (every
		// small-file close) would otherwise grow the table forever.
		delete(t.byInode, inode)
		return
	}
	t.byInode[inode] = out
}

// insert grants [start,end) to holder, absorbing the holder's own
// overlapping or adjacent ranges of the same mode.
func (t *tokenTable) insert(inode int64, holder string, start, end units.Bytes, mode TokenMode) {
	in := t.byInode[inode]
	out := in[:0]
	for _, r := range in {
		if r.Holder == holder && r.Mode == mode && r.Start <= end && start <= r.End {
			if r.Start < start {
				start = r.Start
			}
			if r.End > end {
				end = r.End
			}
			continue
		}
		if r.Holder == holder && overlaps(r.Start, r.End, start, end) && mode == TokExclusive {
			// Upgrading a shared range: swallow the overlapped part.
			if r.Start < start {
				out = append(out, heldRange{r.Start, start, r.Mode, r.Holder})
			}
			if r.End > end {
				out = append(out, heldRange{end, r.End, r.Mode, r.Holder})
			}
			continue
		}
		out = append(out, r)
	}
	out = append(out, heldRange{start, end, mode, holder})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Holder < out[j].Holder
	})
	t.byInode[inode] = out
}

// dropHolder releases every token a client holds (unmount / eviction).
func (t *tokenTable) dropHolder(holder string) {
	for inode, rs := range t.byInode {
		out := rs[:0]
		for _, r := range rs {
			if r.Holder != holder {
				out = append(out, r)
			}
		}
		if len(out) == 0 {
			delete(t.byInode, inode)
		} else {
			t.byInode[inode] = out
		}
	}
}

// dropInode forgets all tokens (and contention history) for a removed file.
func (t *tokenTable) dropInode(inode int64) {
	delete(t.byInode, inode)
	delete(t.contended, inode)
}

// widen expands [start,end) to the widest range that conflicts with no
// other holder at the given mode — GPFS's opportunistic grant. The
// caller has already revoked every conflicting range inside [start,end),
// so only ranges entirely below or above it remain: the grant grows down
// to the nearest conflicting end and up to the nearest conflicting start.
// A sequential writer thus takes one token RPC for the whole unclaimed
// tail of the file; a competitor showing up later carves the wide grant
// back down through the ordinary revoke path.
func (t *tokenTable) widen(inode int64, requester string, start, end units.Bytes, mode TokenMode) (units.Bytes, units.Bytes) {
	lo, hi := units.Bytes(0), maxTokenEnd
	for _, r := range t.byInode[inode] {
		if r.Holder == requester {
			continue
		}
		if mode == TokShared && r.Mode == TokShared {
			continue
		}
		if r.End <= start && r.End > lo {
			lo = r.End
		}
		if r.Start >= end && r.Start < hi {
			hi = r.Start
		}
	}
	return lo, hi
}

// holderCovers reports whether holder already holds [start,end) at >= mode.
func (t *tokenTable) holderCovers(inode int64, holder string, start, end units.Bytes, mode TokenMode) bool {
	cur := start
	rs := t.byInode[inode]
	for cur < end {
		advanced := false
		for _, r := range rs {
			if r.Holder != holder || cur < r.Start || cur >= r.End {
				continue
			}
			if mode == TokExclusive && r.Mode != TokExclusive {
				continue
			}
			cur = r.End
			advanced = true
			break
		}
		if !advanced {
			return false
		}
	}
	return true
}

// Token RPC payloads.
const tokenService = "token"

type tokenOp struct {
	Op      string // acquire | release
	Cluster string
	Client  string
	Inode   int64
	Start   units.Bytes // required range start
	End     units.Bytes // required range end
	DStart  units.Bytes // desired range start (>= granted >= required)
	DEnd    units.Bytes // desired range end
	Mode    TokenMode
	Wide    bool // opportunistic grant: widen into conflict-free space
}

// maxTokenEnd is the open upper bound of a wide grant — effectively "to
// end of file, whatever it grows to" (Truncate uses the same sentinel).
const maxTokenEnd = units.Bytes(1) << 60

// grantRange is the acquire response payload.
type grantRange struct {
	Start, End units.Bytes
}

type revokePayload struct {
	FS    string
	Inode int64
	Start units.Bytes
	End   units.Bytes
}

const revokeService = "token.revoke"

// obsTokenEvent counts one token-protocol event in *n and emits its
// instant (manager side): "grant" when a range is handed out, "revoke"
// when a victim is asked to give a span up, "steal" when the span
// actually changes hands.
func (fs *FileSystem) obsTokenEvent(n *uint64, what, holder string, ino int64, start, end units.Bytes) {
	*n++
	if tr := fs.Sim.Tracer(); tr != nil {
		tr.InstantCtx(trace.Ctx{}, "token", what, fs.Name, int64(fs.Sim.Now()),
			trace.S("holder", holder), trace.I("ino", ino),
			trace.I("start", int64(start)), trace.I("end", int64(end)))
	}
}

// serveToken handles acquire/release on the coordinator (the central
// manager). With shards configured, an acquire or release arriving here
// for a shard-homed inode is an escalation: the client fell back because
// the home shard refused, so the coordinator steals the shard's
// authority (lease steal-back) before serving from its own table.
func (fs *FileSystem) serveToken(p *sim.Proc, req *netsim.Request) netsim.Response {
	op, ok := req.Payload.(tokenOp)
	if !ok {
		return netsim.Response{Err: fmt.Errorf("core: bad token payload %T", req.Payload)}
	}
	if n := len(fs.shards); n > 0 && (op.Op == "acquire" || op.Op == "release") {
		k := inodeShard(n, op.Inode)
		fs.shards[k].st.Escalations++
		fs.stealBack(p, k)
	}
	return fs.serveTokenOp(p, op, nil)
}

// serveTokenOp is the token protocol shared by the coordinator (sh ==
// nil: fs.tokens, revokes from fs.mgr) and every shard (the shard's
// table, revokes from its home server's endpoint).
func (fs *FileSystem) serveTokenOp(p *sim.Proc, op tokenOp, sh *tokenShard) netsim.Response {
	t, from := fs.tokens, fs.mgr
	if sh != nil {
		t, from = sh.table, sh.EP
	}
	switch op.Op {
	case "acquire":
		if op.End <= op.Start {
			return netsim.Response{Err: fmt.Errorf("core: empty token range [%d,%d)", op.Start, op.End)}
		}
		// GPFS-style negotiation: the client names a required range (the
		// access) and a desired range (required widened forward). The
		// manager revokes conflicting holders across the whole desired
		// range and grants all of it, so a holder re-entering a region it
		// lost makes progress in desired-sized strides, not per-I/O.
		// Pattern-aware clients size the widening (ClientConfig.TokenChunk)
		// so that disjoint strided writers — the Fig. 11 MPI-IO pattern —
		// produce no conflicts at all.
		dStart, dEnd := op.DStart, op.DEnd
		if dStart > op.Start || dStart < 0 {
			dStart = op.Start
		}
		if dEnd < op.End {
			dEnd = op.End
		}
		if t.holderCovers(op.Inode, op.Client, op.Start, op.End, op.Mode) {
			return netsim.Response{Size: 64, Payload: grantRange{op.Start, op.End}}
		}
		conf := t.conflicts(op.Inode, dStart, dEnd, op.Mode, op.Client)
		if len(conf) > 0 {
			t.contended[op.Inode] = true
			// Revoke conflicting holders in parallel; wait for all. A
			// revoked client flushes dirty data in the span before acking,
			// which is what makes cross-site caching coherent.
			holders := make([]string, 0, len(conf))
			for h := range conf {
				holders = append(holders, h)
			}
			sort.Strings(holders)
			wg := sim.NewWaitGroup(fs.Sim)
			for _, h := range holders {
				// Victims lose only the requester's desired span; their
				// holdings outside it survive.
				s0, e0 := dStart, dEnd
				if sp := conf[h]; sp[0] > s0 {
					s0 = sp[0]
				}
				if sp := conf[h]; sp[1] < e0 {
					e0 = sp[1]
				}
				cl := fs.cluster.clients[h]
				if cl == nil {
					t.carve(op.Inode, h, s0, e0)
					continue
				}
				wg.Add(1)
				if sh != nil {
					sh.st.Revokes++
				}
				fs.obsTokenEvent(&fs.st.TokenRevokes, "revoke", h, op.Inode, s0, e0)
				h := h
				from.GoCtx(p.Ctx(), cl.EP, revokeService, 128,
					revokePayload{FS: fs.Name, Inode: op.Inode, Start: s0, End: e0},
					func(r netsim.Response) {
						if r.Err != nil {
							// The victim did not ack — a dead node. GPFS does
							// not block the requester forever: the holder's
							// lease runs out and the manager reclaims its
							// tokens (its dirty data is lost, as on a real
							// node crash). Wait out the lease, then steal.
							fs.obsTokenEvent(&fs.st.LeaseWaits, "lease_wait", h, op.Inode, s0, e0)
							fs.Sim.Post(sim.KindOther, fs.lease, func() {
								t.carve(op.Inode, h, s0, e0)
								t.dropHolder(h)
								delete(fs.cluster.clients, h)
								fs.obsTokenEvent(&fs.st.Expires, "expire", h, op.Inode, s0, e0)
								wg.Done()
							})
							return
						}
						t.carve(op.Inode, h, s0, e0)
						fs.obsTokenEvent(&fs.st.TokenSteals, "steal", h, op.Inode, s0, e0)
						wg.Done()
					})
			}
			fs.st.Waiting++
			if sh != nil {
				sh.st.Waiting++
			}
			wg.Wait(p)
			fs.st.Waiting--
			if sh != nil {
				sh.st.Waiting--
			}
		}
		if sh != nil && sh.stolen {
			// The coordinator stole this shard's authority while we were
			// blocked on revokes: our table merged away underneath us.
			// Refuse rather than grant from a dead table; the client
			// retries at the coordinator.
			return netsim.Response{Err: fmt.Errorf("core: %s: %w", sh.label(), ErrShardMoved)}
		}
		gStart, gEnd := dStart, dEnd
		if op.Wide && !t.contended[op.Inode] {
			gStart, gEnd = t.widen(op.Inode, op.Client, dStart, dEnd, op.Mode)
		}
		t.insert(op.Inode, op.Client, gStart, gEnd, op.Mode)
		if sh != nil {
			sh.st.Grants++
		}
		fs.obsTokenEvent(&fs.st.TokenGrants, "grant", op.Client, op.Inode, gStart, gEnd)
		return netsim.Response{Size: 64, Payload: grantRange{gStart, gEnd}}

	case "release":
		t.carve(op.Inode, op.Client, op.Start, op.End)
		return netsim.Response{Size: 64}

	case "unmount":
		// Unmount goes to the coordinator, which drops the client's
		// holdings from every table — its own and each shard's (shared
		// state; the wire round trip to the coordinator is the cost).
		fs.tokens.dropHolder(op.Client)
		for _, s2 := range fs.shards {
			s2.table.dropHolder(op.Client)
		}
		// The registry is cluster-wide: a client that still mounts another
		// of this cluster's filesystems must stay reachable for revokes.
		if cl := fs.cluster.clients[op.Client]; cl != nil && cl.mountsOf(fs.cluster.Name) <= 1 {
			delete(fs.cluster.clients, op.Client)
		}
		return netsim.Response{Size: 64}
	}
	return netsim.Response{Err: fmt.Errorf("core: unknown token op %q", op.Op)}
}

// TokenStats returns the (grants, revokes) the coordinator and every
// shard have served, for tests and benches.
func (fs *FileSystem) TokenStats() (uint64, uint64) { return fs.st.TokenGrants, fs.st.TokenRevokes }
