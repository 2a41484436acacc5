package experiments

import (
	"fmt"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/metrics"
	"gfs/internal/netsim"
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

	// TeraGrid hub, reached from the booth over 3 parallel 10 GbE links.
	hub := nw.NewNode("tg-hub")
	var fwd []*netsim.Link
	mons := make([]*metrics.RateMonitor, 0, 2*cfg.WANLinks)
	for i := 0; i < cfg.WANLinks; i++ {
		f, r := nw.DuplexLink(fmt.Sprintf("scinet%d", i), show.Switch, hub, 10*units.Gbps, cfg.WANDelay)
		mf := metrics.NewRateMonitor(s, fmt.Sprintf("link%d-out", i), cfg.Interval)
		mr := metrics.NewRateMonitor(s, fmt.Sprintf("link%d-in", i), cfg.Interval)
		f.Monitor, r.Monitor = mf, mr
		mons = append(mons, mf, mr)
		fwd = append(fwd, f)
	}
	_ = fwd

	// Remote sites hang off the hub.
	makeSite := func(name string) *Site {
		st := cfg.Env.NewSite(s, nw, name)
		nw.DuplexLink(name+"-tg", hub, st.Switch, 30*units.Gbps, 2*sim.Millisecond)
		return st
	}
	sdsc := makeSite("sdsc")
	ncsa := makeSite("ncsa")

	// Multi-cluster trust: SC'04 was the first outing of GSI-era auth.
	for _, st := range []*Site{sdsc, ncsa} {
		if err := show.Cluster.AuthAdd(st.Cluster.Name, st.Cluster.PublicPEM()); err != nil {
			panic(err)
		}
		if err := show.Cluster.AuthGrant("gpfs-sc04", st.Cluster.Name, auth.ReadWrite); err != nil {
			panic(err)
		}
		if err := st.Cluster.RemoteClusterAdd(show.Cluster.Name, show.Cluster.Contact(), show.Cluster.PublicPEM()); err != nil {
			panic(err)
		}
		if err := st.Cluster.RemoteFSAdd("gpfs_sc04", show.Cluster.Name, "gpfs-sc04"); err != nil {
			panic(err)
		}
	}
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
			m, err := cl.MountRemote(p, "gpfs_sc04")
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

	// Per-link series (out+in summed) and the aggregate.
	agg := &metrics.Series{Name: "aggregate", XLabel: "time (s)", YLabel: "Gb/s"}
	perLink := make([]*metrics.Series, cfg.WANLinks)
	maxLen := 0
	parts := make([]*metrics.Series, len(mons))
	for i, m := range mons {
		parts[i] = m.SeriesGbps()
		if parts[i].Len() > maxLen {
			maxLen = parts[i].Len()
		}
	}
	for li := 0; li < cfg.WANLinks; li++ {
		perLink[li] = &metrics.Series{Name: fmt.Sprintf("link %d", li), XLabel: "time (s)", YLabel: "Gb/s"}
	}
	var peakAgg, peakLink float64
	// Clip the seeding phase (no WAN traffic) so the time axis starts at
	// the demonstration proper.
	startBin := int(demoStart / cfg.Interval)
	for i := startBin; i < maxLen; i++ {
		var sum float64
		var x float64
		for li := 0; li < cfg.WANLinks; li++ {
			var v float64
			for _, idx := range []int{2 * li, 2*li + 1} {
				if i < parts[idx].Len() {
					v += parts[idx].Points[i].Y
					x = parts[idx].Points[i].X - demoStart.Seconds()
				}
			}
			perLink[li].Add(x, v)
			sum += v
			if v > peakLink {
				peakLink = v
			}
		}
		agg.Add(x, sum)
		if sum > peakAgg {
			peakAgg = sum
		}
	}
	for _, ls := range perLink {
		res.Add(ls)
	}
	res.Add(agg)
	res.Headline["peak aggregate Gb/s"] = peakAgg
	res.Headline["peak per-link Gb/s"] = peakLink
	res.Headline["sustained aggregate Gb/s"] = agg.SustainedY(5, agg.Points[len(agg.Points)-1].X-5)
	res.Note("paper: 7-9 Gb/s per link, ~24 Gb/s aggregate, 27 Gb/s momentary peak")
	return res
}
