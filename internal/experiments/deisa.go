package experiments

import (
	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/units"
	"gfs/internal/workload"
)

// DEISAConfig parameterizes the §7 European deployment reproduction.
type DEISAConfig struct {
	Sites     []string // the four core sites
	LinkRate  units.BitsPerSec
	LinkDelay sim.Time
	Servers   int // NSD servers per site
	FileSize  units.Bytes
	BlockSize units.Bytes
	Env       Env // observability for the run
}

// DefaultDEISAConfig mirrors the DEISA core: CINECA, FZJ, IDRIS, RZG on
// 1 Gb/s links.
func DefaultDEISAConfig() DEISAConfig {
	return DEISAConfig{
		Sites:     []string{"cineca", "fzj", "idris", "rzg"},
		LinkRate:  units.Gbps,
		LinkDelay: 8 * sim.Millisecond,
		Servers:   8,
		FileSize:  4 * units.GiB,
		BlockSize: units.MiB,
	}
}

// RunDEISA regenerates §7: each core site exports its filesystem to all
// the others; a plasma-turbulence application at each site does direct
// I/O against each remote filesystem, and every pairing should saturate
// the 1 Gb/s inter-site link (paper: "I/O rates of more than 100
// Mbytes/s, thus hitting the theoretical limit of the network").
func RunDEISA(cfg DEISAConfig) *Result {
	res := NewResult("E6", "DEISA MC-GPFS: all-pairs remote direct I/O")
	s := cfg.Env.NewSim()
	nw := cfg.Env.newEthernetNet(s)

	hub := nw.NewNode("deisa-net")
	sites := make([]*Site, len(cfg.Sites))
	for i, name := range cfg.Sites {
		sites[i] = cfg.Env.NewSite(s, nw, name)
		nw.DuplexLink(name+"-wan", sites[i].Switch, hub, cfg.LinkRate, cfg.LinkDelay)
		sites[i].BuildFS(FSOptions{
			Name: "gpfs-" + name, BlockSize: cfg.BlockSize,
			Servers: cfg.Servers, ServerEth: units.Gbps,
			StoreRate: 300 * units.MBps, StoreCap: units.TB, StoreStreams: 4,
		})
	}
	// Full-mesh trust: every site imports every other site's filesystem.
	devices := map[[2]int]string{}
	for i := range sites {
		for j := range sites {
			if i == j {
				continue
			}
			devices[[2]int{i, j}] = Peer(sites[i], sites[j], auth.ReadWrite)
		}
	}
	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = 32
	for _, st := range sites {
		st.AddClients(1, 2*units.Gbps, ccfg)
	}

	matrix := &metrics.Series{Name: "pair rate", XLabel: "pair index", YLabel: "MB/s"}
	var minRate, maxRate float64
	cfg.Env.run(s, func(p *sim.Proc) error {
		// Seed one plasma dataset at each site.
		for _, st := range sites {
			m, err := st.Clients[0].MountLocal(p, st.FS)
			if err != nil {
				return err
			}
			if err := seedFile(p, m, "/turbulence.h5", cfg.FileSize, 8*units.MiB); err != nil {
				return err
			}
		}
		pair := 0
		for i := range sites {
			for j := range sites {
				if i == j {
					continue
				}
				// Site j's application reads site i's dataset directly.
				m, err := sites[j].Clients[0].MountRemote(p, devices[[2]int{i, j}])
				if err != nil {
					return err
				}
				f, err := m.Open(p, "/turbulence.h5")
				if err != nil {
					return err
				}
				r, err := workload.ReadAll(p, f, cfg.BlockSize)
				if err != nil {
					return err
				}
				rate := float64(r.Rate()) / 1e6
				matrix.Add(float64(pair), rate)
				if minRate == 0 || rate < minRate {
					minRate = rate
				}
				if rate > maxRate {
					maxRate = rate
				}
				pair++
			}
		}
		return nil
	})
	res.Add(matrix)
	res.Headline["min pair MB/s"] = minRate
	res.Headline["max pair MB/s"] = maxRate
	res.Headline["link limit MB/s"] = float64(cfg.LinkRate) / 8e6
	res.Note("paper: >100 MB/s on every pairing — the 1 Gb/s WAN is the only limit")
	return res
}
