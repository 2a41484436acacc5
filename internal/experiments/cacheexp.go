package experiments

import (
	"fmt"

	"gfs/internal/auth"
	"gfs/internal/cachefs"
	"gfs/internal/core"
	"gfs/internal/sim"
	"gfs/internal/units"
	"gfs/internal/workload"
)

// CacheConfig parameterizes the §8 automatic-caching experiment.
type CacheConfig struct {
	WANRate  units.BitsPerSec
	WANDelay sim.Time
	Files    int
	FileSize units.Bytes
	Budget   units.Bytes
	Accesses int // Zipf-ish: repeated touches of a small hot set
	HotSet   int
	Env      Env // observability for the run
}

// DefaultCacheConfig models an edge site working against a distant
// library over a saturated-era WAN.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{
		WANRate:  units.Gbps,
		WANDelay: 30 * sim.Millisecond,
		Files:    12,
		FileSize: 512 * units.MiB,
		Budget:   4 * units.GiB,
		Accesses: 36,
		HotSet:   4,
	}
}

// RunCache quantifies §8's closing prediction — sites relying on central
// "copyright libraries" with "automatic caching … an integral piece of
// the overall file access mechanism" — by replaying an access trace with
// and without the edge cache.
func RunCache(cfg CacheConfig) *Result {
	res := NewResult("E10", "Automatic edge caching over a copyright library (§8)")

	trace := make([]int, cfg.Accesses)
	for i := range trace {
		if i%3 == 0 { // a third of accesses wander the catalog
			trace[i] = i % cfg.Files
		} else { // the rest hit the hot set
			trace[i] = i % cfg.HotSet
		}
	}

	build := func() (*sim.Sim, *Site, *core.Client, string) {
		s := cfg.Env.NewSim()
		nw := cfg.Env.newEthernetNet(s)
		library := cfg.Env.NewSite(s, nw, "library")
		library.BuildFS(FSOptions{
			Name: "archive", BlockSize: units.MiB,
			Servers: 8, ServerEth: units.Gbps,
			StoreRate: 400 * units.MBps, StoreCap: 50 * units.TB, StoreStreams: 4,
		})
		edge := cfg.Env.NewSite(s, nw, "edge")
		edge.BuildFS(FSOptions{
			Name: "scratch", BlockSize: units.MiB,
			Servers: 4, ServerEth: units.Gbps,
			StoreRate: 400 * units.MBps, StoreCap: 10 * units.TB, StoreStreams: 4,
		})
		nw.DuplexLink("wan", library.Switch, edge.Switch, cfg.WANRate, cfg.WANDelay)
		device := Peer(library, edge, auth.ReadOnly)
		client := edge.AddClients(1, 2*units.Gbps, core.DefaultClientConfig())[0]
		return s, library, client, device
	}

	seed := func(p *sim.Proc, library *Site) error {
		seeder := library.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]
		m, err := seeder.MountLocal(p, library.FS)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.Files; i++ {
			if err := seedFile(p, m, fmt.Sprintf("/ds%02d", i), cfg.FileSize, 8*units.MiB); err != nil {
				return err
			}
		}
		return nil
	}

	// --- Baseline: every access crosses the WAN directly. ---
	var directTime sim.Time
	var directWAN units.Bytes
	{
		s, library, client, device := build()
		cfg.Env.run(s, func(p *sim.Proc) error {
			if err := seed(p, library); err != nil {
				return err
			}
			m, err := client.MountRemote(p, device)
			if err != nil {
				return err
			}
			// A modest pagepool: working set exceeds it, as the paper's
			// dataset sizes exceeded site memory.
			t0 := p.Now()
			for _, idx := range trace {
				f, err := m.Open(p, fmt.Sprintf("/ds%02d", idx))
				if err != nil {
					return err
				}
				m.DropCaches()
				if _, err := workload.ReadAll(p, f, units.MiB); err != nil {
					return err
				}
			}
			directTime = p.Now() - t0
			rd := m.Stats().BytesRead
			directWAN = rd
			return nil
		})
	}

	// --- Cached: same trace through the edge cache. ---
	var cachedTime sim.Time
	var cachedWAN units.Bytes
	var hits, misses uint64
	{
		s, library, client, device := build()
		cfg.Env.run(s, func(p *sim.Proc) error {
			if err := seed(p, library); err != nil {
				return err
			}
			local, err := client.MountLocal(p, client.Cluster().FS("scratch"))
			if err != nil {
				return err
			}
			remote, err := client.MountRemote(p, device)
			if err != nil {
				return err
			}
			c, err := cachefs.New(s, p, local, remote, "/cache", cfg.Budget)
			if err != nil {
				return err
			}
			t0 := p.Now()
			for _, idx := range trace {
				f, err := c.Open(p, fmt.Sprintf("/ds%02d", idx))
				if err != nil {
					return err
				}
				local.DropCaches()
				if _, err := workload.ReadAll(p, f, units.MiB); err != nil {
					return err
				}
			}
			cachedTime = p.Now() - t0
			rd := remote.Stats().BytesRead
			cachedWAN = rd
			hits, misses, _, _ = c.Stats()
			return nil
		})
	}

	res.Headline["direct trace s"] = directTime.Seconds()
	res.Headline["cached trace s"] = cachedTime.Seconds()
	res.Headline["speedup"] = directTime.Seconds() / cachedTime.Seconds()
	res.Headline["direct WAN GB"] = float64(directWAN) / 1e9
	res.Headline["cached WAN GB"] = float64(cachedWAN) / 1e9
	res.Headline["WAN reduction x"] = float64(directWAN) / float64(cachedWAN)
	res.Headline["cache hits"] = float64(hits)
	res.Headline["cache misses"] = float64(misses)
	res.Note("§8: edge sites with disk but no archive lean on central libraries; the cache converts repeat WAN reads into local ones")
	return res
}
