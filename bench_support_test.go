package gfs

import (
	"fmt"
	"testing"

	"gfs/internal/core"
	"gfs/internal/disk"
	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/raid"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/units"
)

func benchName(key string, v int) string { return fmt.Sprintf("%s=%d", key, v) }

// wanStreamRate measures one client streaming 256 MiB across a WAN with
// the given one-way delay and read-ahead depth; window 0 means the 16 MiB
// default. Returns simulated MB/s.
func wanStreamRate(b *testing.B, readAhead int, oneWay sim.Time, window units.Bytes) float64 {
	b.Helper()
	s := sim.New()
	nw := netsim.New(s)
	if window > 0 {
		nw.DefaultTCP = netsim.TCPConfig{MaxWindow: window, InitWindow: 64 * units.KiB}
	}
	site := experiments.Env{}.NewSite(s, nw, "origin")
	site.BuildFS(experiments.FSOptions{
		Name: "fs", BlockSize: units.MiB,
		Servers: 8, ServerEth: 10 * units.Gbps,
		StoreRate: units.GBps, StoreCap: units.TB, StoreStreams: 8,
	})
	remote := nw.NewNode("remote")
	nw.DuplexLink("wan", site.Switch, remote, 10*units.Gbps, oneWay)
	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = readAhead
	cl := core.NewClient(site.Cluster, "reader", remote, ccfg, core.Identity{DN: "/CN=bench"})
	seeder := site.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]

	const size = 256 * units.MiB
	var rate float64
	s.Go("bench", func(p *sim.Proc) {
		sm, err := seeder.MountLocal(p, site.FS)
		if err != nil {
			b.Error(err)
			return
		}
		f, err := sm.Create(p, "/d", core.DefaultPerm)
		if err != nil {
			b.Error(err)
			return
		}
		for off := units.Bytes(0); off < size; off += 8 * units.MiB {
			if err := f.WriteAt(p, off, 8*units.MiB); err != nil {
				b.Error(err)
				return
			}
		}
		if err := f.Close(p); err != nil {
			b.Error(err)
			return
		}
		m, err := cl.MountLocal(p, site.FS)
		if err != nil {
			b.Error(err)
			return
		}
		g, err := m.Open(p, "/d")
		if err != nil {
			b.Error(err)
			return
		}
		t0 := p.Now()
		for off := units.Bytes(0); off < size; off += units.MiB {
			if err := g.ReadAt(p, off, units.MiB); err != nil {
				b.Error(err)
				return
			}
		}
		rate = float64(size) / (p.Now() - t0).Seconds() / 1e6
	})
	s.Run()
	return rate
}

// stripeRate measures a LAN stream against a FS with the given server
// count and block size. Returns simulated MB/s.
func stripeRate(b *testing.B, servers int, blockSize units.Bytes) float64 {
	b.Helper()
	s := sim.New()
	nw := netsim.New(s)
	site := experiments.Env{}.NewSite(s, nw, "origin")
	site.BuildFS(experiments.FSOptions{
		Name: "fs", BlockSize: blockSize,
		Servers: servers, ServerEth: units.Gbps,
		StoreRate: 300 * units.MBps, StoreCap: units.TB, StoreStreams: 4,
	})
	cl := site.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]
	const size = 256 * units.MiB
	var rate float64
	s.Go("bench", func(p *sim.Proc) {
		m, err := cl.MountLocal(p, site.FS)
		if err != nil {
			b.Error(err)
			return
		}
		f, err := m.Create(p, "/d", core.DefaultPerm)
		if err != nil {
			b.Error(err)
			return
		}
		for off := units.Bytes(0); off < size; off += 8 * units.MiB {
			if err := f.WriteAt(p, off, 8*units.MiB); err != nil {
				b.Error(err)
				return
			}
		}
		if err := f.Close(p); err != nil {
			b.Error(err)
			return
		}
		// Fresh client so reads hit the servers, not the writer's cache.
		rd := site.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]
		m2, err := rd.MountLocal(p, site.FS)
		if err != nil {
			b.Error(err)
			return
		}
		g, err := m2.Open(p, "/d")
		if err != nil {
			b.Error(err)
			return
		}
		t0 := p.Now()
		for off := units.Bytes(0); off < size; off += blockSize {
			if err := g.ReadAt(p, off, blockSize); err != nil {
				b.Error(err)
				return
			}
		}
		rate = float64(size) / (p.Now() - t0).Seconds() / 1e6
	})
	s.Run()
	return rate
}

// gatherRow is one arm of the write-gathering ablation: the writer's and
// the cold reader's rates, the RAID sets' write counters and the
// writer's gathered flushes.
type gatherRow struct {
	writeMBps, readMBps                          float64
	rmwWrites, fullStripeWrites, gatheredFlushes uint64
}

// writeGatherRow runs one sequential writer, then a cold reader, through
// 512 MiB on a small DS4100-backed filesystem with stripe-aligned write
// gathering off or on. BlockSize 1 MiB against a 2 MiB stripe width
// makes every ungathered write-back a sub-stripe update.
func writeGatherRow(tb testing.TB, gather bool) gatherRow {
	tb.Helper()
	s := sim.New()
	nw := netsim.New(s)
	site := experiments.Env{}.NewSite(s, nw, "wg")
	// DS4100 enclosures trimmed to four LUNs behind 4 Gb/s loops: the
	// SATA spindles, not the fabric, set the ceiling, so the ablation
	// measures the RAID write path rather than FC serialization.
	acfg := san.DS4100Config()
	acfg.Sets = 4
	acfg.CtrlRate = san.FC4
	site.BuildFS(experiments.FSOptions{
		Name: "fs", BlockSize: units.MiB,
		Servers: 4, ServerEth: 10 * units.Gbps,
		Arrays: 2, ArrayCfg: acfg,
		ServerHBA: san.FC4, HBAsPer: 1,
	})
	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = 16
	ccfg.WriteBehind = 16
	if gather {
		ccfg.WideTokens = true
		site.FS.EnableGather()
	}
	writer := site.AddClients(1, 10*units.Gbps, ccfg)[0]
	reader := site.AddClients(1, 10*units.Gbps, ccfg)[0]

	const size = 512 * units.MiB
	var row gatherRow
	s.Go("writegather", func(p *sim.Proc) {
		m, err := writer.MountLocal(p, site.FS)
		if err != nil {
			tb.Error(err)
			return
		}
		f, err := m.Create(p, "/seq.dat", core.DefaultPerm)
		if err != nil {
			tb.Error(err)
			return
		}
		t0 := p.Now()
		for off := units.Bytes(0); off < size; off += units.MiB {
			if err := f.WriteAt(p, off, units.MiB); err != nil {
				tb.Error(err)
				return
			}
		}
		if err := f.Sync(p); err != nil {
			tb.Error(err)
			return
		}
		row.writeMBps = float64(size) / (p.Now() - t0).Seconds() / 1e6
		row.gatheredFlushes = m.Stats().GatheredFlushes
		if err := f.Close(p); err != nil {
			tb.Error(err)
			return
		}
		// Cold read from a second client: demand fetches plus batched
		// prefetch go to the NSD servers, not the writer's pagepool.
		rm, err := reader.MountLocal(p, site.FS)
		if err != nil {
			tb.Error(err)
			return
		}
		g, err := rm.Open(p, "/seq.dat")
		if err != nil {
			tb.Error(err)
			return
		}
		t1 := p.Now()
		for off := units.Bytes(0); off < size; off += units.MiB {
			if err := g.ReadAt(p, off, units.MiB); err != nil {
				tb.Error(err)
				return
			}
		}
		row.readMBps = float64(size) / (p.Now() - t1).Seconds() / 1e6
	})
	s.Run()
	for _, arr := range site.Fabric.Arrays {
		for _, set := range arr.Sets {
			row.rmwWrites += set.RMWWrites()
			row.fullStripeWrites += set.FullStripeWrites()
		}
	}
	return row
}

// newBenchRAID builds one 8+P SATA set for the RAID5 penalty ablation.
func newBenchRAID() (*sim.Sim, *raid.Set) {
	s := sim.New()
	members := make([]*disk.Disk, 9)
	for i := range members {
		members[i] = disk.New(s, fmt.Sprintf("d%d", i), disk.SATA250())
	}
	return s, raid.NewSet(s, "r5", members, 256*units.KiB)
}
