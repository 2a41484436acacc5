package experiments

import (
	"fmt"

	"gfs/internal/core"
	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/units"
	"gfs/internal/workload"
)

// SC03Config parameterizes the Fig. 5 reproduction.
type SC03Config struct {
	Servers   int // NSD servers in the show-floor booth (paper: 40)
	VizNodes  int // visualization clients at SDSC (paper: 32)
	WANRate   units.BitsPerSec
	WANDelay  sim.Time
	FileSize  units.Bytes // per visualization file
	Files     int
	BlockSize units.Bytes
	Interval  sim.Time
	// RestartGap is the pause when the viz app exhausts its data and is
	// restarted — the dip in Fig. 5.
	RestartGap sim.Time
	// ReadAhead / WriteBehind override the clients' pipelining depth and
	// dirty-page limit (gfssim -ra-depth / -wb-max-dirty). Zero keeps the
	// experiment defaults (32 blocks readahead, client-default dirty cap).
	ReadAhead   int
	WriteBehind int
	// VizEth is each viz node's LAN rate; zero means 1 GbE (the SC'03
	// hardware). The readahead-depth sweep raises it so the measurement is
	// bounded by the WAN pipeline, not a single client's NIC.
	VizEth units.BitsPerSec
	Env    Env // observability for the run
}

// DefaultSC03Config mirrors SC'03: 40 dual-IA64 servers on the Phoenix
// show floor serving over a 10 GbE SciNet link to 32 viz nodes at SDSC.
func DefaultSC03Config() SC03Config {
	return SC03Config{
		Servers:    40,
		VizNodes:   32,
		WANRate:    10 * units.Gbps,
		WANDelay:   6 * sim.Millisecond, // Phoenix - San Diego
		FileSize:   2 * units.GiB,
		Files:      64,
		BlockSize:  units.MiB,
		Interval:   sim.Second,
		RestartGap: 8 * sim.Second,
	}
}

// RunSC03 regenerates Fig. 5: native WAN-GPFS bandwidth over time, with
// the mid-run dip where the visualization application ran out of data and
// was restarted.
func RunSC03(cfg SC03Config) *Result {
	res := NewResult("E2/Fig5", "SC'03 native WAN-GPFS bandwidth, show floor to SDSC")
	s := cfg.Env.NewSim()
	nw := cfg.Env.newEthernetNet(s)

	show := cfg.Env.NewSite(s, nw, "showfloor")
	show.BuildFS(FSOptions{
		Name: "gpfs-sc03", BlockSize: cfg.BlockSize,
		Servers: cfg.Servers, ServerEth: units.Gbps,
		StoreRate: 200 * units.MBps, StoreCap: units.TB, StoreStreams: 4,
	})
	// SciNet 10 GbE from the booth to the TeraGrid, then SDSC.
	sdscSW := nw.NewNode("sdsc-sw")
	wanFwd, _ := nw.DuplexLink("scinet", show.Switch, sdscSW, cfg.WANRate, cfg.WANDelay)
	mon := metrics.NewRateMonitor(s, "scinet", cfg.Interval)
	wanFwd.Monitor = mon

	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = 32
	if cfg.ReadAhead > 0 {
		ccfg.ReadAhead = cfg.ReadAhead
	}
	if cfg.WriteBehind > 0 {
		ccfg.WriteBehind = cfg.WriteBehind
	}
	vizEth := cfg.VizEth
	if vizEth == 0 {
		vizEth = units.Gbps
	}
	var viz []*core.Client
	for i := 0; i < cfg.VizNodes; i++ {
		node := nw.NewNode(fmt.Sprintf("sdsc-viz%d", i))
		nw.DuplexLink(fmt.Sprintf("viz%d", i), node, sdscSW, vizEth, lanDelay)
		viz = append(viz, core.NewClient(show.Cluster, fmt.Sprintf("viz%d", i), node, ccfg,
			core.Identity{DN: fmt.Sprintf("/O=SDSC/CN=viz%d", i)}))
	}
	// A local seeder writes the dataset on the show floor first (data was
	// copied from SDSC to the booth before the demo).
	seeder := show.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]

	var vizStart, vizEnd sim.Time
	var vizMounts []*core.Mount
	cfg.Env.run(s, func(p *sim.Proc) error {
		sm, err := seeder.MountLocal(p, show.FS)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.Files; i++ {
			if err := seedFile(p, sm, fmt.Sprintf("/viz%02d.dat", i), cfg.FileSize, 8*units.MiB); err != nil {
				return err
			}
		}
		mounts, err := MountAll(p, viz, show.FS, "")
		if err != nil {
			return err
		}
		vizMounts = mounts
		vizStart = p.Now()
		// pass streams one file per viz node; shift picks a disjoint file
		// set so the second pass isn't served from the pagepool.
		pass := func(shift int) error {
			files := make([]string, len(mounts))
			for i := range files {
				files[i] = fmt.Sprintf("/viz%02d.dat", (i+shift)%cfg.Files)
			}
			_, err := (&workload.Viz{Mounts: mounts, Files: files, IOSize: cfg.BlockSize}).Run(p)
			return err
		}
		if err := pass(0); err != nil {
			return err
		}
		p.Sleep(cfg.RestartGap) // the Fig. 5 dip
		err = pass(cfg.VizNodes)
		vizEnd = p.Now()
		return err
	})

	ser := mon.SeriesGbps()
	vizSer := &metrics.Series{Name: "WAN bandwidth", XLabel: "time (s)", YLabel: "Gb/s"}
	for _, pt := range ser.Points {
		if pt.X >= vizStart.Seconds() {
			vizSer.Add(pt.X-vizStart.Seconds(), pt.Y)
		}
	}
	res.Add(vizSer)
	res.Headline["peak Gb/s"] = vizSer.MaxY()
	res.Headline["sustained GB/s"] = vizSer.MeanY() / 8
	res.Headline["link Gb/s"] = float64(cfg.WANRate) / 1e9
	// Per-client read throughput over the active read time (excluding the
	// restart gap) — the figure of merit for the readahead-depth sweep: a
	// single WAN client is latency-bound, so this scales with ReadAhead
	// until the link or the page pool saturates.
	var clientBytes units.Bytes
	for _, m := range vizMounts {
		clientBytes += m.Stats().BytesRead
	}
	if readSec := (vizEnd - vizStart - cfg.RestartGap).Seconds(); readSec > 0 && len(vizMounts) > 0 {
		res.Headline["client MB/s"] = float64(clientBytes) / float64(len(vizMounts)) / readSec / 1e6
	}
	res.Note("paper: peak 8.96 Gb/s on a 10 Gb/s link, >1 GB/s sustained; dip = viz app restart")
	return res
}
