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
// place, and WriteMmpmon renders every field with an mmpmon tag as one
// "label: value" row, in declaration order: a new mount counter is one
// tagged field plus its increment.
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
	CacheHits      uint64      `mmpmon:"cache hits"`
	CacheMisses    uint64      `mmpmon:"cache misses"`    // demand fetches only; prefetches are separate
	PrefetchIssued uint64      `mmpmon:"prefetch issued"` // speculative block fetches started
	PrefetchHits   uint64      `mmpmon:"prefetch hits"`   // prefetched blocks later claimed by demand reads
	PrefetchUnused uint64      `mmpmon:"prefetch unused"` // prefetched blocks dropped without a demand read
	Writebacks     uint64      `mmpmon:"writebacks"`      // background dirty-page flushes issued
	WriteStalls    uint64      `mmpmon:"write stalls"`    // writes blocked on write-behind backpressure

	// Write-gathering counters (zero unless ClientConfig.Gather /
	// WideTokens are on).
	GatheredFlushes  uint64 `mmpmon:"gathered flushes"`   // multi-page flush RPCs issued
	FullStripeWrites uint64 `mmpmon:"full stripe writes"` // gathered flushes covering whole RAID stripes
	WideTokenGrants  uint64 `mmpmon:"wide token grants"`  // token grants wider than the desired range
	BatchedNSDOps    uint64 `mmpmon:"batched nsd ops"`    // multi-block NSD RPCs (flushes + prefetches)

	// Sharded-plane counters (zero on an unsharded filesystem).
	ShardMetaOps       uint64 `mmpmon:"shard meta ops"`       // metadata ops served by a shard
	ShardTokenAcquires uint64 `mmpmon:"shard token acquires"` // token acquires served by a shard
	ShardFallbacks     uint64 `mmpmon:"shard fallbacks"`      // ops rerouted to the coordinator (shard down/moved)

	// Page-buffer arena counters.
	ArenaHits     uint64 `mmpmon:"arena hits"`     // buffer gets served from a free list
	ArenaMisses   uint64 `mmpmon:"arena misses"`   // buffer gets that had to allocate
	ArenaRecycled uint64 `mmpmon:"arena recycled"` // buffers returned to a free list

	DirtyPages int // dirty pages currently in the pool
}

// Stats returns a snapshot of the mount's I/O statistics.
func (m *Mount) Stats() MountStats {
	st := m.st
	st.PrefetchUnused = m.pool.unusedPrefetch
	st.DirtyPages = len(m.pool.dirty)
	st.ArenaHits, st.ArenaMisses, st.ArenaRecycled = m.arena.hits, m.arena.misses, m.arena.recycled
	return st
}

// FSName returns the name of the mounted filesystem (which may differ
// from the local device name for remote mounts).
func (m *Mount) FSName() string { return m.fsName }

// OwnerCluster returns the name of the cluster owning the filesystem.
func (m *Mount) OwnerCluster() string { return m.owner }

// Client returns the client this mount belongs to.
func (m *Mount) Client() *Client { return m.c }

// Clients returns the cluster's known clients sorted by ID. Remote
// clients that mounted one of this cluster's filesystems are included,
// exactly as the token manager sees them.
func (c *Cluster) Clients() []*Client {
	out := make([]*Client, 0, len(c.clients))
	for _, cl := range c.clients {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

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
// section per mounted filesystem per client, one io_s section per
// filesystem (server-side aggregate plus token and metadata counters),
// one nsd_s line per NSD server, and one resource line per registered
// sim.Resource (service-capacity utilization). Ordering is fully
// deterministic: clients by ID, filesystems by name, resources in
// creation order.
func WriteMmpmon(w io.Writer, s *sim.Sim, clusters []*Cluster) {
	now := s.Now()
	fmt.Fprintf(w, "=== mmpmon snapshot t=%.6fs ===\n", now.Seconds())

	// Clients can appear in several clusters' registries (a remote mount
	// registers the client with the exporting cluster too); dedupe by ID.
	seen := map[string]bool{}
	var all []*Client
	for _, c := range clusters {
		for _, cl := range c.Clients() {
			if !seen[cl.id] {
				seen[cl.id] = true
				all = append(all, cl)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })

	for _, cl := range all {
		mounts := cl.Mounts()
		sort.Slice(mounts, func(i, j int) bool { return mounts[i].Device < mounts[j].Device })
		for _, m := range mounts {
			st := reflect.ValueOf(m.Stats())
			fmt.Fprintf(w, "mmpmon node %s fs_io_s OK\n", cl.id)
			fmt.Fprintf(w, "cluster: %s\n", m.owner)
			fmt.Fprintf(w, "filesystem: %s\n", m.fsName)
			fmt.Fprintf(w, "disks: %d\n", m.info.NSDs)
			fmt.Fprintf(w, "timestamp: %.6f\n", now.Seconds())
			for i := 0; i < st.NumField(); i++ {
				if label := st.Type().Field(i).Tag.Get("mmpmon"); label != "" {
					fmt.Fprintf(w, "%s: %d\n", label, st.Field(i).Interface())
				}
			}
		}
	}

	for _, c := range clusters {
		for _, fs := range c.Filesystems() {
			var in, out units.Bytes
			for _, srv := range fs.servers {
				o, i := srv.BytesServed()
				out += o
				in += i
			}
			grants, revokes := fs.TokenStats()
			fmt.Fprintf(w, "mmpmon fs %s io_s OK\n", fs.Name)
			fmt.Fprintf(w, "cluster: %s\n", c.Name)
			fmt.Fprintf(w, "disks: %d\n", fs.NSDs())
			fmt.Fprintf(w, "timestamp: %.6f\n", now.Seconds())
			fmt.Fprintf(w, "bytes read: %d\n", int64(out))
			fmt.Fprintf(w, "bytes written: %d\n", int64(in))
			fmt.Fprintf(w, "token grants: %d\n", grants)
			fmt.Fprintf(w, "token revokes: %d\n", revokes)
			fmt.Fprintf(w, "meta ops: %d\n", fs.MetaOps())
			fmt.Fprintf(w, "capacity: %d\n", int64(fs.Capacity()))
			fmt.Fprintf(w, "free: %d\n", int64(fs.FreeBytes()))
			// Per-shard token-plane counters, emitted only when the plane
			// is sharded. Plain key/value rows inside the io_s section, so
			// older ParseMmpmon scrapers recover them as ordinary counters.
			for k := 0; k < fs.TokenShards(); k++ {
				g, r, esc, st := fs.ShardStats(k)
				fmt.Fprintf(w, "token shard %d grants: %d\n", k, g)
				fmt.Fprintf(w, "token shard %d revokes: %d\n", k, r)
				fmt.Fprintf(w, "token shard %d escalations: %d\n", k, esc)
				fmt.Fprintf(w, "token shard %d steals: %d\n", k, st)
			}
			for _, srv := range fs.servers {
				o, i := srv.BytesServed()
				state := "up"
				if srv.Down() {
					state = "down"
				}
				fmt.Fprintf(w, "mmpmon nsd %s %s read %d written %d\n",
					srv.Name, state, int64(o), int64(i))
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
