package experiments

import (
	"fmt"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/units"
	"gfs/internal/workload"
)

// SC04Config parameterizes the Fig. 8 reproduction.
type SC04Config struct {
	Servers    int // booth NSD servers (paper: 40, 3 HBAs each)
	WANLinks   int // parallel 10 GbE links to the TeraGrid (paper: 3)
	WANDelay   sim.Time
	SiteNodes  int // clients per remote site (SDSC, NCSA)
	FileSize   units.Bytes
	BlockSize  units.Bytes
	Interval   sim.Time
	ReadFiles  int         // files per read phase
	Phases     int         // alternating read/write phases
	WriteBytes units.Bytes // per client per write phase
	Env        Env         // observability for the run
}

// DefaultSC04Config mirrors the SC'04 StorCloud demonstration.
func DefaultSC04Config() SC04Config {
	return SC04Config{
		Servers:    40,
		WANLinks:   3,
		WANDelay:   25 * sim.Millisecond, // Pittsburgh - Chicago - sites
		SiteNodes:  24,
		FileSize:   2 * units.GiB,
		BlockSize:  units.MiB,
		Interval:   sim.Second,
		ReadFiles:  48,
		Phases:     2,
		WriteBytes: units.GiB,
	}
}

// RunSC04 regenerates Fig. 8: per-link and aggregate transfer rates while
// SDSC and NCSA alternately read from and write to the multi-cluster GPFS
// served from the Pittsburgh show floor.
func RunSC04(cfg SC04Config) *Result {
	res := NewResult("E3/Fig8", "SC'04 transfer rates: 3x10GbE, multi-cluster GPFS")
	s := cfg.Env.NewSim()
	nw := cfg.Env.newEthernetNet(s)

	// Show-floor cluster: 40 servers, SAN-backed by StorCloud arrays.
	show := cfg.Env.NewSite(s, nw, "showfloor")
	show.BuildFS(FSOptions{
		Name: "gpfs-sc04", BlockSize: cfg.BlockSize,
		Servers: cfg.Servers, ServerEth: units.Gbps,
		StoreRate: 375 * units.MBps, StoreCap: 4 * units.TB, StoreStreams: 6,
	})

	// TeraGrid hub, reached from the booth over 3 parallel 10 GbE links,
	// each monitored both ways.
	hub := nw.NewNode("tg-hub")
	type linkMons struct{ out, in *metrics.RateMonitor }
	mons := make([]linkMons, cfg.WANLinks)
	for i := range mons {
		f, r := nw.DuplexLink(fmt.Sprintf("scinet%d", i), show.Switch, hub, 10*units.Gbps, cfg.WANDelay)
		mons[i] = linkMons{nw.MonitorLink(f, cfg.Interval), nw.MonitorLink(r, cfg.Interval)}
	}

	// Remote sites hang off the hub.
	makeSite := func(name string) *Site {
		st := cfg.Env.NewSite(s, nw, name)
		nw.DuplexLink(name+"-tg", hub, st.Switch, 30*units.Gbps, 2*sim.Millisecond)
		return st
	}
	sdsc := makeSite("sdsc")
	ncsa := makeSite("ncsa")

	// Multi-cluster trust: SC'04 was the first outing of GSI-era auth.
	device := Peer(show, sdsc, auth.ReadWrite)
	Peer(show, ncsa, auth.ReadWrite)
	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = 24
	sdscClients := sdsc.AddClients(cfg.SiteNodes, units.Gbps, ccfg)
	ncsaClients := ncsa.AddClients(cfg.SiteNodes, units.Gbps, ccfg)
	seeder := show.AddClients(1, 30*units.Gbps, core.DefaultClientConfig())[0]

	var demoStart sim.Time
	cfg.Env.run(s, func(p *sim.Proc) error {
		sm, err := seeder.MountLocal(p, show.FS)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.ReadFiles; i++ {
			if err := seedFile(p, sm, fmt.Sprintf("/enzo%03d.out", i), cfg.FileSize, 8*units.MiB); err != nil {
				return err
			}
		}
		demoStart = p.Now()
		var mounts []*core.Mount
		for _, cl := range append(append([]*core.Client{}, sdscClients...), ncsaClients...) {
			m, err := cl.MountRemote(p, device)
			if err != nil {
				return err
			}
			mounts = append(mounts, m)
		}
		// Each node runs the sort application independently: read an input
		// file from the booth, write its output back, repeat — no global
		// barrier, which is why the paper's rates were "remarkably
		// constant" while reads and writes alternated.
		g := sim.NewGroup(s)
		for i, m := range mounts {
			m, i := m, i
			g.Go("sort", func(vp *sim.Proc) error {
				for phase := 0; phase < cfg.Phases; phase++ {
					so := &workload.Sorter{
						Mount:      m,
						Input:      fmt.Sprintf("/enzo%03d.out", (i+phase*len(mounts))%cfg.ReadFiles),
						Output:     fmt.Sprintf("/sorted.p%d.%03d", phase, i),
						OutputSize: cfg.WriteBytes,
						IOSize:     cfg.BlockSize,
					}
					if _, err := so.Run(vp); err != nil {
						return err
					}
				}
				return nil
			})
		}
		return g.Wait(p)
	})

	// Per-link series (out+in summed) and the aggregate, clipped to the
	// demonstration proper: the seeding phase puts nothing on the WAN.
	perLink := make([]*metrics.Series, cfg.WANLinks)
	var peakLink float64
	for i, m := range mons {
		name := fmt.Sprintf("link %d", i)
		perLink[i] = metrics.Sum(name, "Gb/s", m.out.SeriesGbps(), m.in.SeriesGbps()).From(name, demoStart.Seconds())
		peakLink = max(peakLink, perLink[i].MaxY())
		res.Add(perLink[i])
	}
	agg := metrics.Sum("aggregate", "Gb/s", perLink...)
	res.Add(agg)
	res.Headline["peak aggregate Gb/s"] = agg.MaxY()
	res.Headline["peak per-link Gb/s"] = peakLink
	res.Headline["sustained aggregate Gb/s"] = agg.SustainedY(5, agg.Points[len(agg.Points)-1].X-5)
	res.Note("paper: 7-9 Gb/s per link, ~24 Gb/s aggregate, 27 Gb/s momentary peak")
	return res
}
