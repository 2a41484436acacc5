package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gfs/internal/critpath"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// metric is one named, unit-bearing number.
type metric struct {
	name  string
	unit  string
	value float64
}

type metrics []metric

func (ms *metrics) add(name, unit string, v float64) {
	*ms = append(*ms, metric{name, unit, v})
}

func (ms metrics) get(name string) (float64, bool) {
	for _, m := range ms {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// modeled returns the simulated file system's performance: what the
// paper measures. Every value is a function of virtual time only, so it
// is identical across repeats of one seed.
func modeled(it *iter) metrics {
	var out metrics
	var dur sim.Time
	var ioBytes units.Bytes
	calls := 0
	var opDur [nOps]sim.Time
	var opCalls [nOps]int
	var opBytes [nOps]units.Bytes
	for _, ph := range it.phases {
		dur += ph.dur
		ioBytes += ph.bytes[opRead] + ph.bytes[opWrite]
		calls += ph.calls[opRead] + ph.calls[opWrite] + ph.calls[opMeta]
		for op := range ph.calls {
			if ph.calls[op] > 0 {
				opDur[op] += ph.dur
				opCalls[op] += ph.calls[op]
				opBytes[op] += ph.bytes[op]
			}
		}
	}
	var all []int64
	for _, op := range []opKind{opRead, opWrite, opMeta} {
		all = append(all, it.lats[op]...)
	}
	out.add("modeled_MBps", "MB/s", ratio(float64(ioBytes)/1e6, dur.Seconds()))
	out.add("modeled_ops_per_s", "1/s", ratio(float64(calls), dur.Seconds()))
	var sum int64
	for _, l := range all {
		sum += l
	}
	out.add("op_mean_ms", "ms", ratio(ms(sum), float64(len(all))))
	out.add("op_p99_ms", "ms", ms(quantile(all, 0.99)))
	out.add("op.read_MBps", "MB/s", ratio(float64(opBytes[opRead])/1e6, opDur[opRead].Seconds()))
	out.add("op.write_MBps", "MB/s", ratio(float64(opBytes[opWrite])/1e6, opDur[opWrite].Seconds()))
	out.add("op.meta_ops_per_s", "1/s", ratio(float64(opCalls[opMeta]), opDur[opMeta].Seconds()))
	for _, op := range []opKind{opRead, opWrite, opMeta} {
		out.add("op."+opNames[op]+"_p50_ms", "ms", ms(quantile(it.lats[op], 0.50)))
		out.add("op."+opNames[op]+"_p99_ms", "ms", ms(quantile(it.lats[op], 0.99)))
	}
	return out
}

// layerCounters returns the per-layer metrics read from public counters
// over the measured phases. Like modeled, they are deterministic.
func layerCounters(it *iter) metrics {
	var out metrics
	b, a := &it.before, &it.after
	window := (it.simEnd - it.simBegin).Seconds()
	events := float64(a.events - b.events)
	out.add("sim.events", "count", events)

	solves := a.solver.Solves() - b.solver.Solves()
	out.add("netsim.solves", "count", float64(solves))
	out.add("netsim.region_conns", "count", float64(a.solver.RegionConns-b.solver.RegionConns))
	utilMax, fcMax := 0.0, 0.0
	for i, l := range it.nw.Links() {
		if i >= len(b.links) {
			break
		}
		capBytes := float64(l.Capacity()) / 8
		u := ratio(float64(a.links[i]-b.links[i]), capBytes*window)
		utilMax = math.Max(utilMax, u)
		// san names its controller cables "fc:" and its host adapters "hba:".
		if strings.HasPrefix(l.Name(), "fc:") || strings.HasPrefix(l.Name(), "hba:") {
			fcMax = math.Max(fcMax, u)
		}
	}
	out.add("netsim.link_util_max", "fraction", utilMax)
	out.add("netsim.rpc_peak_inflight", "count", float64(rpcPeakInFlight(it)))

	dm := func(f func(c *counters) uint64) float64 { return float64(f(a) - f(b)) }
	hits := dm(func(c *counters) uint64 { return c.mount.CacheHits })
	misses := dm(func(c *counters) uint64 { return c.mount.CacheMisses })
	out.add("core.pagepool.hit_rate", "fraction", ratio(hits, hits+misses))
	out.add("core.pagepool.prefetch_useful", "fraction",
		ratio(dm(func(c *counters) uint64 { return c.mount.PrefetchHits }),
			dm(func(c *counters) uint64 { return c.mount.PrefetchIssued })))
	out.add("core.pagepool.prefetch_unused", "count", dm(func(c *counters) uint64 { return c.mount.PrefetchUnused }))
	out.add("core.pagepool.writebacks", "count", dm(func(c *counters) uint64 { return c.mount.Writebacks }))
	out.add("core.pagepool.write_stalls_per_write", "ratio",
		ratio(dm(func(c *counters) uint64 { return c.mount.WriteStalls }),
			dm(func(c *counters) uint64 { return c.mount.Writes })))
	ah := dm(func(c *counters) uint64 { return c.mount.ArenaHits })
	am := dm(func(c *counters) uint64 { return c.mount.ArenaMisses })
	out.add("core.pagepool.arena_hit_rate", "fraction", ratio(ah, ah+am))

	out.add("core.token.grants", "count", dm(func(c *counters) uint64 { return c.grants }))
	out.add("core.token.revokes", "count", dm(func(c *counters) uint64 { return c.revokes }))
	out.add("core.token.meta_ops", "count", dm(func(c *counters) uint64 { return c.metaOps }))
	out.add("core.token.shard_fallbacks", "count", dm(func(c *counters) uint64 { return c.mount.ShardFallbacks }))

	var out0, in0 units.Bytes
	var served []float64
	for i := range a.srvOut {
		o, n := a.srvOut[i]-b.srvOut[i], a.srvIn[i]-b.srvIn[i]
		out0 += o
		in0 += n
		served = append(served, float64(o+n))
	}
	out.add("core.nsd.read_amp", "ratio", ratio(float64(out0), float64(it.bytes[opRead])))
	out.add("core.nsd.write_amp", "ratio", ratio(float64(in0), float64(it.bytes[opWrite])))
	out.add("core.nsd.imbalance", "ratio", maxOverMean(served))
	out.add("core.nsd.batched_ops", "count", dm(func(c *counters) uint64 { return c.mount.BatchedNSDOps }))

	out.add("raid.rmw_frac", "fraction", ratio(float64(a.raidRMW-b.raidRMW), float64(a.raidWrites-b.raidWrites)))
	out.add("raid.full_stripe_writes", "count", float64(a.raidFull-b.raidFull))
	out.add("raid.reads", "count", float64(a.raidReads-b.raidReads))

	var utils []float64
	for i := range a.setBusy {
		utils = append(utils, ratio((a.setBusy[i]-b.setBusy[i]).Seconds(), window))
	}
	out.add("disk.ops", "count", float64(a.diskOps-b.diskOps))
	out.add("disk.util_mean", "fraction", mean(utils))
	out.add("disk.util_max", "fraction", maxOf(utils))
	out.add("san.fc_util_max", "fraction", fcMax)
	return out
}

// engineLayers returns the engine probe's wall split and counts from a
// traced iteration.
func engineLayers(it *iter) metrics {
	var out metrics
	snap := it.probe.Snapshot()
	var total int64
	byKind := map[string]sim.EngineKindStat{}
	for _, k := range snap.Kinds {
		total += k.EstWallNs
		byKind[k.Name] = k
	}
	pct := func(kind string) float64 { return 100 * ratio(float64(byKind[kind].EstWallNs), float64(total)) }
	out.add("sim.peak_pending", "count", float64(snap.PeakPending))
	out.add("sim.proc_start.wall_pct", "%", pct("sim.proc_start"))
	out.add("sim.timer.wall_pct", "%", pct("sim.timer"))
	out.add("sim.wake.wall_pct", "%", pct("sim.wake"))
	out.add("netsim.recompute.wall_pct", "%", pct("net.recompute"))
	out.add("netsim.deliver.wall_pct", "%", pct("net.deliver"))
	out.add("netsim.cwnd_bumps", "count", float64(byKind["net.cwnd_bump"].Count))
	return out
}

// critpathOps and critpathPhases bound the virtual-time split to the op
// types and phases an optimization is likely to move.
var (
	critpathOps    = []string{"read", "write", "flush", "prefetch", "sync"}
	critpathPhases = []string{
		critpath.PhaseClient, critpath.PhaseToken, critpath.PhaseRPC,
		critpath.PhaseNetQueue, critpath.PhaseNetXmit, critpath.PhaseProp,
		critpath.PhaseDiskQueue, critpath.PhaseDisk, critpath.PhaseCache,
		critpath.PhasePrefetch, critpath.PhaseWriteback,
	}
)

// critpathLayers returns each op type's critical-path virtual time per
// phase, as a share of the op type's summed end-to-end latency.
func critpathLayers(it *iter) metrics {
	var out metrics
	byOp := map[string]*critpath.OpStats{}
	if it.agg != nil {
		for _, s := range it.agg.Report().Ops {
			byOp[s.Name] = s
		}
	}
	for _, op := range critpathOps {
		s := byOp[op]
		for _, ph := range critpathPhases {
			v := 0.0
			if s != nil {
				v = 100 * ratio(float64(s.Phases[ph]), float64(s.TotalNs))
			}
			out.add(fmt.Sprintf("critpath.%s.%s_pct", op, ph), "%", v)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func maxOverMean(xs []float64) float64 { return ratio(maxOf(xs), mean(xs)) }

// median of xs (which it sorts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
