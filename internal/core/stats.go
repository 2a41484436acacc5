package core

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"

	"gfs/internal/metrics"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/timeline"
	"gfs/internal/units"
)

// MountStats is the per-mount I/O statistics record — the analogue of one
// mmpmon fs_io_s response row. A Mount counts into its own MountStats in
// place. A field tagged mmpmon:"<label>" is an fs_io_s row, in declaration
// order; a field tagged counter:"<name>" is a line of the gfssim -stats
// counter block. A new mount counter is one tagged field plus its increment.
//
// The cache counters keep speculation honest: CacheMisses counts only
// demand fetches, while prefetched blocks are tracked from issue
// (PrefetchIssued) to either a demand read claiming them (PrefetchHits)
// or being dropped untouched (PrefetchUnused). A hit rate computed from
// CacheHits/CacheMisses is therefore not inflated by readahead traffic.
type MountStats struct {
	BytesRead      units.Bytes `mmpmon:"bytes read"`
	BytesWritten   units.Bytes `mmpmon:"bytes written"`
	Opens          uint64      `mmpmon:"opens"`
	Closes         uint64      `mmpmon:"closes"`
	Reads          uint64      `mmpmon:"reads"`  // read calls (ReadAt/Read), not blocks
	Writes         uint64      `mmpmon:"writes"` // write calls (WriteAt/Write)
	CacheHits      uint64      `mmpmon:"cache hits" counter:"cache.hits"`
	CacheMisses    uint64      `mmpmon:"cache misses" counter:"cache.misses"`             // demand fetches only; prefetches are separate
	PrefetchIssued uint64      `mmpmon:"prefetch issued" counter:"cache.prefetch_issued"` // speculative block fetches started
	PrefetchHits   uint64      `mmpmon:"prefetch hits" counter:"cache.prefetch_hits"`     // prefetched blocks later claimed by demand reads
	PrefetchUnused uint64      `mmpmon:"prefetch unused"`                                 // prefetched blocks dropped without a demand read
	Writebacks     uint64      `mmpmon:"writebacks"`                                      // background dirty-page flushes issued
	WriteStalls    uint64      `mmpmon:"write stalls"`                                    // writes blocked on write-behind backpressure

	// Write-gathering counters (zero unless the filesystem has gathering
	// on, FileSystem.EnableGather, or the mount asks for WideTokens).
	GatheredFlushes  uint64 `mmpmon:"gathered flushes" counter:"cache.gathered_flushes"` // multi-page flush RPCs issued
	FullStripeWrites uint64 `mmpmon:"full stripe writes"`                                // gathered flushes covering whole RAID stripes
	WideTokenGrants  uint64 `mmpmon:"wide token grants" counter:"token.wide_grants"`     // token grants wider than the desired range
	BatchedNSDOps    uint64 `mmpmon:"batched nsd ops"`                                   // multi-block NSD RPCs: BatchedFetches + GatheredFlushes

	// Sharded-plane counters (zero on an unsharded filesystem).
	ShardMetaOps       uint64 `mmpmon:"shard meta ops"`       // metadata ops served by a shard
	ShardTokenAcquires uint64 `mmpmon:"shard token acquires"` // token acquires served by a shard
	ShardFallbacks     uint64 `mmpmon:"shard fallbacks"`      // ops rerouted to the coordinator (shard down/moved)

	// Page-buffer arena counters.
	ArenaHits     uint64 `mmpmon:"arena hits"`     // buffer gets served from a free list
	ArenaMisses   uint64 `mmpmon:"arena misses"`   // buffer gets that had to allocate
	ArenaRecycled uint64 `mmpmon:"arena recycled"` // buffers returned to a free list

	// Counter-block-only counters (no fs_io_s row).
	BatchedFetches      uint64 `counter:"cache.batched_fetches"`      // multi-block prefetch RPCs issued
	ReadaheadBlocks     uint64 `counter:"cache.readahead_blocks"`     // blocks the stream detector asked to prefetch
	WritebehindTriggers uint64 `counter:"cache.writebehind_triggers"` // times the dirty bound started a background flush
	Flushes             uint64 `counter:"cache.flushes"`              // flush RPCs acked, gathered or not
	MetaCalls           uint64 `counter:"meta.calls"`                 // metadata RPCs issued
	TokenAcquires       uint64 `counter:"token.acquires"`             // token acquire RPCs granted
	PrimaryDowns        uint64 `counter:"failover.primary_down"`      // NSD primaries observed down
	PrimaryUps          uint64 `counter:"failover.primary_up"`        // NSD primaries observed back

	DirtyPages int // dirty pages currently in the pool
}

// Stats returns a snapshot of the mount's I/O statistics.
func (m *Mount) Stats() MountStats {
	st := m.st
	st.PrefetchUnused = m.pool.unusedPrefetch
	st.BatchedNSDOps = st.BatchedFetches + st.GatheredFlushes
	st.DirtyPages = len(m.pool.dirty)
	st.ArenaHits, st.ArenaMisses, st.ArenaRecycled = m.arena.hits, m.arena.misses, m.arena.recycled
	return st
}

// add folds o into s field by field.
func (s *MountStats) add(o MountStats) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.CanInt() {
			f.SetInt(f.Int() + ov.Field(i).Int())
		} else {
			f.SetUint(f.Uint() + ov.Field(i).Uint())
		}
	}
}

// Stats sums the statistics of every mount the client has had, unmounted
// ones included, so a client's counts never step backwards.
func (cl *Client) Stats() MountStats {
	st := cl.retired
	for _, m := range cl.mounts {
		st.add(m.Stats())
	}
	return st
}

// FSStats is a filesystem's server-side statistics — the analogue of one
// mmpmon io_s response, tagged like MountStats. Each of Shards adds a
// group of "token shard <k>" rows.
type FSStats struct {
	BytesRead    units.Bytes `mmpmon:"bytes read"`    // summed over the NSD servers
	BytesWritten units.Bytes `mmpmon:"bytes written"` // summed over the NSD servers
	TokenGrants  uint64      `mmpmon:"token grants" counter:"token.grants"`
	TokenRevokes uint64      `mmpmon:"token revokes" counter:"token.revokes"`
	MetaOps      uint64      `mmpmon:"meta ops"`
	Capacity     units.Bytes `mmpmon:"capacity"`
	Free         units.Bytes `mmpmon:"free"`

	TokenSteals     uint64 `counter:"token.steals"`            // revoked spans handed over
	LeaseWaits      uint64 `counter:"token.lease_waits"`       // revokes a dead holder never acked
	Expires         uint64 `counter:"token.expires"`           // dead holders' tokens reclaimed
	ShardLeaseWaits uint64 `counter:"token.shard_lease_waits"` // steal-backs that waited out a shard's lease
	ShardSteals     uint64 `counter:"token.shard_steals"`      // shard tables merged into the coordinator
	ElevRounds      uint64 `counter:"nsd.elev.rounds"`         // NSD elevator dispatch rounds
	ElevMerged      uint64 `counter:"nsd.elev.merged"`         // requests merged into a neighbour

	Waiting int          // acquires blocked on revokes right now: the wait-queue depth
	Shards  []ShardStats // one per token shard; nil when unsharded
}

// ShardStats is one token shard's row group in the io_s section.
type ShardStats struct {
	Grants      uint64 `mmpmon:"grants"`      // token grants served by the shard
	Revokes     uint64 `mmpmon:"revokes"`     // revokes the shard sent
	Escalations uint64 `mmpmon:"escalations"` // ops homed here that the coordinator served
	Steals      uint64 `mmpmon:"steals"`      // holdings merged into the coordinator at steal-back
	Waiting     int    // acquires blocked on revokes at this shard right now
}

// Stats returns a snapshot of the filesystem's statistics.
func (fs *FileSystem) Stats() FSStats {
	st := fs.st
	for _, srv := range fs.servers {
		st.BytesRead += srv.st.BytesRead
		st.BytesWritten += srv.st.BytesWritten
	}
	st.Capacity, st.Free = fs.Capacity(), fs.FreeBytes()
	for _, sh := range fs.shards {
		st.Shards = append(st.Shards, sh.st)
	}
	return st
}

// ServerStats counts the I/O an NSD server has served.
type ServerStats struct {
	BytesRead     units.Bytes `counter:"nsd.read.bytes"`
	BytesWritten  units.Bytes `counter:"nsd.write.bytes"`
	Reads         uint64      `counter:"nsd.read.ops"`
	Writes        uint64      `counter:"nsd.write.ops"`
	BatchedOps    uint64      `counter:"nsd.batched.ops"`    // multi-block transfers
	BatchedBlocks uint64      `counter:"nsd.batched.blocks"` // blocks those transfers covered
}

// Stats returns a snapshot of the server's statistics.
func (s *NSDServer) Stats() ServerStats { return s.st }

// ClusterStats counts a cluster's multi-cluster handshakes, as the
// importing side.
type ClusterStats struct {
	Handshakes   uint64 `counter:"auth.handshakes"`
	AuthFailures uint64 `counter:"auth.failures"`
}

// Stats returns a snapshot of the cluster's statistics.
func (c *Cluster) Stats() ClusterStats { return c.st }

// Counters sums counter-tagged statistics by name (the -stats counter block).
type Counters map[string]uint64

// Add folds every field of the statistics struct v tagged
// counter:"<name>" into c.
func (c Counters) Add(v any) {
	eachTagged(v, "counter", func(name string, f reflect.Value) {
		if f.CanInt() {
			c[name] += uint64(f.Int())
		} else {
			c[name] += f.Uint()
		}
	})
}

// Write renders every non-zero counter as one line, sorted by name.
func (c Counters) Write(w io.Writer) {
	names := make([]string, 0, len(c))
	for n, v := range c {
		if v != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "counter %-32s %d\n", n, c[n])
	}
}

// eachTagged calls fn for every field of the struct v carrying a key tag,
// with the tag's value, in declaration order.
func eachTagged(v any, key string, fn func(tag string, f reflect.Value)) {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if tag := rv.Type().Field(i).Tag.Get(key); tag != "" {
			fn(tag, rv.Field(i))
		}
	}
}

// writeRows renders every mmpmon-tagged field of the statistics struct v
// as a "<prefix><label>: <value>" row, in declaration order.
func writeRows(w io.Writer, prefix string, v any) {
	eachTagged(v, "mmpmon", func(label string, f reflect.Value) {
		fmt.Fprintf(w, "%s%s: %d\n", prefix, label, f.Interface())
	})
}

// Client returns the client this mount belongs to.
func (m *Mount) Client() *Client { return m.c }

// Members returns the clients created in this cluster, in creation order,
// whether or not they still mount anything.
func (c *Cluster) Members() []*Client { return c.members }

// Filesystems returns the cluster's filesystems sorted by name.
func (c *Cluster) Filesystems() []*FileSystem {
	out := make([]*FileSystem, 0, len(c.fss))
	for _, fs := range c.fss {
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteMmpmon renders an mmpmon-style statistics snapshot: one fs_io_s
// section per mounted filesystem per client created in the given
// clusters (pass every cluster on s for a whole-site view), one io_s
// section per filesystem (server-side aggregate plus token and metadata
// counters), one nsd_s line per NSD server, and one resource line per
// registered sim.Resource (service-capacity utilization). Ordering is
// fully deterministic: clients by ID, filesystems by name, resources in
// creation order.
func WriteMmpmon(w io.Writer, s *sim.Sim, clusters []*Cluster) {
	now := s.Now()
	fmt.Fprintf(w, "=== mmpmon snapshot t=%.6fs ===\n", now.Seconds())

	// Every client belongs to its home cluster, whatever it mounts.
	var all []*Client
	for _, c := range clusters {
		all = append(all, c.members...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })

	for _, cl := range all {
		mounts := cl.Mounts()
		sort.Slice(mounts, func(i, j int) bool { return mounts[i].Device < mounts[j].Device })
		for _, m := range mounts {
			fmt.Fprintf(w, "mmpmon node %s fs_io_s OK\n", cl.id)
			fmt.Fprintf(w, "cluster: %s\n", m.owner)
			fmt.Fprintf(w, "filesystem: %s\n", m.fsName)
			fmt.Fprintf(w, "disks: %d\n", m.info.NSDs)
			fmt.Fprintf(w, "timestamp: %.6f\n", now.Seconds())
			writeRows(w, "", m.Stats())
		}
	}

	for _, c := range clusters {
		for _, fs := range c.Filesystems() {
			st := fs.Stats()
			fmt.Fprintf(w, "mmpmon fs %s io_s OK\n", fs.Name)
			fmt.Fprintf(w, "cluster: %s\n", c.Name)
			fmt.Fprintf(w, "disks: %d\n", fs.NSDs())
			fmt.Fprintf(w, "timestamp: %.6f\n", now.Seconds())
			writeRows(w, "", st)
			// Per-shard token-plane rows, emitted only when the plane is
			// sharded. Plain key/value rows inside the io_s section, so
			// older ParseMmpmon scrapers recover them as ordinary counters.
			for k, sh := range st.Shards {
				writeRows(w, fmt.Sprintf("token shard %d ", k), sh)
			}
			for _, srv := range fs.servers {
				state := "up"
				if srv.Down() {
					state = "down"
				}
				fmt.Fprintf(w, "mmpmon nsd %s %s read %d written %d\n",
					srv.Name, state, int64(srv.st.BytesRead), int64(srv.st.BytesWritten))
			}
		}
	}

	for _, r := range s.Resources() {
		util := float64(r.PeakInUse()) / float64(r.Capacity())
		fmt.Fprintf(w, "mmpmon resource %s cap %d inuse %d queued %d peak %d acquired %d peak_util %.2f\n",
			r.Name(), r.Capacity(), r.InUse(), r.Queued(), r.PeakInUse(), r.TotalAcquired(), util)
	}
	// One solver line per distinct network (clusters usually share one WAN
	// sim). Counters are event-driven — identical runs emit identical
	// lines, so determinism diffs stay byte-clean.
	seenNet := map[*netsim.Network]bool{}
	for _, c := range clusters {
		nw := c.Net
		if nw == nil || seenNet[nw] {
			continue
		}
		seenNet[nw] = true
		WriteMmpmonSolver(w, nw.SolverStats())
	}
	fmt.Fprintf(w, "mmpmon sim events_fired %d pending %d\n", s.EventsFired(), s.Pending())
	if p := s.EngineProbe(); p != nil {
		WriteMmpmonEngine(w, p.Snapshot())
	}
}

// WriteMmpmonSolver renders one network's rate-solver statistics as an
// mmpmon line: the solve count, the conns those solves re-rated, and the
// frontier-size histogram as b<bucket> pairs (bucket b covers frontiers of
// up to 2^b conns; empty buckets are omitted).
func WriteMmpmonSolver(w io.Writer, st netsim.SolverStats) {
	fmt.Fprintf(w, "mmpmon solver full %d region_conns %d", st.FullSolves, st.RegionConns)
	for b, n := range st.FrontierHist {
		if n > 0 {
			fmt.Fprintf(w, " b%d %d", b, n)
		}
	}
	fmt.Fprintln(w)
}

// WriteMmpmonEngine renders one engine-telemetry snapshot as mmpmon
// lines. Emitted by WriteMmpmon only when an EngineProbe is attached —
// the values are wall-clock-derived and would break byte-identical
// determinism diffs of default runs.
func WriteMmpmonEngine(w io.Writer, es sim.EngineSnapshot) {
	fmt.Fprintf(w, "mmpmon engine events %d wall_ns %d sim_ns %d ev_per_s %.0f wall_ms_per_sim_s %.3f allocs_per_ev %.2f depth_p50 %d depth_p99 %d peak_pending %d\n",
		es.Events, es.WallNs, es.SimNs, es.EventsPerSec, es.WallPerSimSec*1e3,
		es.AllocsPerEvent, es.DepthP50, es.DepthP99, es.PeakPending)
	for _, k := range es.Kinds {
		fmt.Fprintf(w, "mmpmon engine_kind %s count %d est_wall_ns %d\n",
			k.Name, k.Count, k.EstWallNs)
	}
}

// WriteMmpmonRates renders one timeline window as mmpmon lines — the
// per-interval rates between snapshots that turn a watched mmpmon feed
// from monotone cumulative counters into visible load. One line per
// series, sorted by name, shortest-round-trip float formatting:
//
//	mmpmon rate nsd.prod-srv0.read_MBps MB/s 117.19
//
// Older ParseMmpmon scrapers predate this line type and skip it into
// Warnings; the current parser recovers it into MmpmonSnapshot.Rates.
func WriteMmpmonRates(w io.Writer, snap timeline.Snapshot) {
	for _, name := range snap.Names {
		unit := snap.Units[name]
		if unit == "" {
			unit = "-"
		}
		fmt.Fprintf(w, "mmpmon rate %s %s %s\n", name, unit,
			strconv.FormatFloat(snap.Values[name], 'g', -1, 64))
	}
}

// WriteMmpmonHists renders every non-empty histogram in the registry as
// one mmpmon line with the full quantile ladder including p999.
func WriteMmpmonHists(w io.Writer, reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, name := range reg.HistogramNames() {
		h := reg.Histogram(name)
		if h.N() == 0 {
			continue
		}
		fmt.Fprintf(w, "mmpmon hist %s n %d mean %.0f p50 %.0f p95 %.0f p99 %.0f p999 %.0f max %.0f\n",
			name, h.N(), h.Mean(), h.P50(), h.P95(), h.P99(), h.P999(), h.Max())
	}
}
