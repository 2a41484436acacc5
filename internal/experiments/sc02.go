package experiments

import (
	"gfs/internal/disk"
	"gfs/internal/fcip"
	"gfs/internal/metrics"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// SC02Config parameterizes the Fig. 2 reproduction.
type SC02Config struct {
	Tunnel    fcip.TunnelConfig
	Arrays    int         // QFS disk arrays at SDSC
	FileSize  units.Bytes // data read by the show-floor host
	BlockSize units.Bytes
	Depth     int // outstanding block requests (SANergy pipelining)
	Interval  sim.Time
	Env       Env // observability for the run
}

// DefaultSC02Config mirrors the SC'02 demonstration, scaled so the run
// covers ~60 virtual seconds.
func DefaultSC02Config() SC02Config {
	return SC02Config{
		Tunnel:    fcip.DefaultTunnelConfig(),
		Arrays:    4,
		FileSize:  45 * units.GB,
		BlockSize: 8 * units.MiB,
		Depth:     64,
		Interval:  sim.Second,
	}
}

// RunSC02 regenerates Fig. 2: read MB/s versus time from the SDSC QFS
// across the FCIP-extended SAN to the Baltimore show floor, 80 ms RTT.
func RunSC02(cfg SC02Config) *Result {
	res := NewResult("E1/Fig2", "SC'02 GFS read performance, SDSC to Baltimore over FCIP")
	s := cfg.Env.NewSim()
	nw := cfg.Env.newNet(s)
	nw.MinRecomputeInterval = 100 * sim.Microsecond
	nw.DefaultTCP = netsim.TCPConfig{} // FC credit flow control, no TCP window
	f := san.NewFabric(s, nw)
	swSDSC := f.Switch("sdsc")
	swShow := f.Switch("baltimore")
	tun := fcip.NewTunnel(f, "nishan", swSDSC, swShow, cfg.Tunnel)

	arrCfg := san.ArrayConfig{
		Sets: 4, MembersPer: 9, Spares: 1, StripeUnit: 256 * units.KiB,
		Drive: disk.FC73(), CtrlRate: san.FC2, CtrlStreams: 4,
	}
	var arrays []*san.Array
	for i := 0; i < cfg.Arrays; i++ {
		arrays = append(arrays, f.NewArray("qfs", swSDSC, arrCfg))
	}
	metaNode := nw.NewNode("sun-f15k")
	f.AttachHBA(metaNode, swSDSC, san.FC2, 1)
	meta := fcip.NewFileServer(f, metaNode, arrays)
	host := nw.NewNode("sf6800")
	f.AttachHBA(host, swShow, san.FC2, 4)
	client := fcip.NewClient(f, host, meta, 8)

	// Monitor the eastbound tunnel channels and aggregate them.
	var mons []*metrics.RateMonitor
	for _, l := range tun.EastboundLinks() {
		mons = append(mons, nw.MonitorLink(l, cfg.Interval))
	}

	cfg.Env.run(s, func(p *sim.Proc) error {
		if err := client.Create(p, "/enzo.dump", cfg.FileSize); err != nil {
			return err
		}
		return client.ReadFile(p, "/enzo.dump", cfg.BlockSize, cfg.Depth)
	})

	parts := make([]*metrics.Series, len(mons))
	for i, m := range mons {
		parts[i] = m.SeriesMBps()
	}
	agg := metrics.Sum("Read", "MB/s", parts...)
	res.Add(agg)
	res.Headline["peak MB/s"] = agg.MaxY()
	dur := agg.Points[len(agg.Points)-1].X
	res.Headline["sustained MB/s"] = agg.SustainedY(0.2*dur, 0.9*dur)
	res.Headline["path cap MB/s"] = float64(cfg.Tunnel.Channels) * float64(cfg.Tunnel.ChannelRate) * (1 - cfg.Tunnel.EncapOverhead) / 8e6
	res.Headline["RTT ms"] = 2 * cfg.Tunnel.Delay.Millis()
	res.Note("paper: >720 MB/s sustained over an 8 Gb/s max path at 80 ms RTT")
	return res
}
