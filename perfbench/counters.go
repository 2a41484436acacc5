package main

import (
	"strings"

	"gfs/internal/core"
	"gfs/internal/netsim"
	"gfs/internal/raid"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// counters is a snapshot of every layer's public counters. The driver
// takes one when the measured phases begin and one when the simulator
// drains; per-layer metrics are the differences.
type counters struct {
	events  uint64
	mount   core.MountStats // summed over the measured mounts
	grants  uint64
	revokes uint64
	metaOps uint64
	srvOut  []units.Bytes // per NSD server
	srvIn   []units.Bytes
	links   []units.Bytes // per link, bytes delivered
	solver  netsim.SolverStats

	raidReads, raidWrites, raidRMW, raidFull uint64
	setBusy                                  []sim.Time // per RAID set, mean member busy time
	diskOps                                  uint64
}

func readCounters(it *iter) counters {
	c := counters{events: it.s.EventsFired(), solver: it.nw.SolverStats()}
	for _, m := range it.mounts {
		st := m.Stats()
		c.mount.BytesRead += st.BytesRead
		c.mount.BytesWritten += st.BytesWritten
		c.mount.CacheHits += st.CacheHits
		c.mount.CacheMisses += st.CacheMisses
		c.mount.PrefetchIssued += st.PrefetchIssued
		c.mount.PrefetchHits += st.PrefetchHits
		c.mount.PrefetchUnused += st.PrefetchUnused
		c.mount.Writebacks += st.Writebacks
		c.mount.WriteStalls += st.WriteStalls
		c.mount.Reads += st.Reads
		c.mount.Writes += st.Writes
		c.mount.BatchedNSDOps += st.BatchedNSDOps
		c.mount.ShardFallbacks += st.ShardFallbacks
		c.mount.ArenaHits += st.ArenaHits
		c.mount.ArenaMisses += st.ArenaMisses
	}
	for _, fs := range filesystems(it) {
		g, r := fs.TokenStats()
		c.grants += g
		c.revokes += r
		c.metaOps += fs.MetaOps()
		for _, srv := range fs.Servers() {
			out, in := srv.BytesServed()
			c.srvOut = append(c.srvOut, out)
			c.srvIn = append(c.srvIn, in)
		}
	}
	for _, l := range it.nw.Links() {
		c.links = append(c.links, l.BytesDelivered())
	}
	for _, set := range raidSets(it) {
		c.raidReads += set.Reads()
		c.raidWrites += set.Writes()
		c.raidRMW += set.RMWWrites()
		c.raidFull += set.FullStripeWrites()
		c.setBusy = append(c.setBusy, set.BusyTime())
	}
	// Each drive's command queue is a sim.Resource named "<drive>/q";
	// its acquisitions are the drive's commands.
	for _, r := range it.s.Resources() {
		if strings.Contains(r.Name(), "/set") && strings.HasSuffix(r.Name(), "/q") {
			c.diskOps += r.TotalAcquired()
		}
	}
	return c
}

// filesystems lists the filesystems the workload's sites own.
func filesystems(it *iter) []*core.FileSystem {
	var out []*core.FileSystem
	for _, site := range it.sites {
		if site.FS != nil {
			out = append(out, site.FS)
		}
	}
	return out
}

func raidSets(it *iter) []*raid.Set {
	var out []*raid.Set
	for _, site := range it.sites {
		if site.Fabric == nil {
			continue
		}
		for _, a := range site.Fabric.Arrays {
			out = append(out, a.Sets...)
		}
	}
	return out
}

// rpcPeakInFlight is the highest number of concurrent RPCs any client,
// NSD server or manager endpoint carried during the whole simulation.
func rpcPeakInFlight(it *iter) int {
	peak := 0
	note := func(ep *netsim.Endpoint) {
		if ep != nil && ep.PeakInFlight() > peak {
			peak = ep.PeakInFlight()
		}
	}
	for _, fs := range filesystems(it) {
		note(fs.Manager())
		for _, srv := range fs.Servers() {
			note(srv.EP)
		}
	}
	for _, m := range it.mounts {
		note(m.Client().EP)
	}
	return peak
}
