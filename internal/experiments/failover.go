package experiments

import (
	"fmt"

	"gfs/internal/core"
	"gfs/internal/fault"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/timeline"
	"gfs/internal/units"
)

// FailoverConfig parameterizes the injected-crash dip-and-recovery run.
type FailoverConfig struct {
	Servers   int // NSD servers at the serving site
	Clients   int // remote reader nodes
	WANRate   units.BitsPerSec
	WANDelay  sim.Time
	FileSize  units.Bytes // per reader
	BlockSize units.Bytes
	Interval  sim.Time // bandwidth sampling bin

	CrashAt  sim.Time // when (after readers start) one NSD server dies
	Outage   sim.Time // how long it stays dead
	Duration sim.Time // total reader run time

	// ReadAhead / WriteBehind override the readers' pipelining depth and
	// dirty-page limit (gfssim -ra-depth / -wb-max-dirty). Zero keeps the
	// experiment defaults (32 blocks readahead, client-default dirty cap).
	ReadAhead   int
	WriteBehind int
	Env         Env // observability for the run
}

// DefaultFailoverConfig scales the SC'03 topology down to a failure
// drill: 8 servers feeding 8 WAN readers, with one server dead for 8 s
// mid-run.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{
		Servers:   8,
		Clients:   8,
		WANRate:   10 * units.Gbps,
		WANDelay:  6 * sim.Millisecond,
		FileSize:  units.GiB,
		BlockSize: units.MiB,
		Interval:  sim.Second,
		CrashAt:   6 * sim.Second,
		Outage:    8 * sim.Second,
		Duration:  30 * sim.Second,
	}
}

// RunFailover injects an NSD server crash under a steady WAN read load
// and measures the dip and recovery: bandwidth collapses while every
// read stream stalls on the dead server's blocks (striping puts one
// block in eight on it), retries ride out the outage under exponential
// backoff, and the restarted server is rediscovered automatically — no
// operator action — returning bandwidth to its pre-fault level.
func RunFailover(cfg FailoverConfig) *Result {
	res := NewResult("E7/failover", "WAN read bandwidth through an NSD server crash and restart")
	s := cfg.Env.NewSim()
	nw := cfg.Env.newEthernetNet(s)

	prod := cfg.Env.NewSite(s, nw, "prod")
	prod.BuildFS(FSOptions{
		Name: "gpfs-ha", BlockSize: cfg.BlockSize,
		Servers: cfg.Servers, ServerEth: 2 * units.Gbps,
		StoreRate: 400 * units.MBps, StoreCap: units.TB, StoreStreams: 4,
	})
	edgeSW := nw.NewNode("edge-sw")
	wanFwd, _ := nw.DuplexLink("wan", prod.Switch, edgeSW, cfg.WANRate, cfg.WANDelay)
	mon := nw.MonitorLink(wanFwd, cfg.Interval)

	// A local timeline tracks each NSD server's serve rate so the result
	// can report how unevenly the survivors carried the load while one
	// server was down (the per-window CoV across servers).
	tl := timeline.New(s, cfg.Interval)
	tl.Label = "failover"
	tl.AddSource(func(tk *timeline.Tick) {
		for _, srv := range prod.FS.Servers() {
			out, in := srv.BytesServed()
			tk.Rate("nsd."+srv.Name+".MBps", "MB/s", float64(out+in)/1e6)
		}
	})

	// Readers retry long enough to ride out the whole outage: there are
	// no backup servers here, so recovery is pure re-probe of the primary.
	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = 32
	if cfg.ReadAhead > 0 {
		ccfg.ReadAhead = cfg.ReadAhead
	}
	if cfg.WriteBehind > 0 {
		ccfg.WriteBehind = cfg.WriteBehind
	}
	ccfg.Retry = netsim.RetryPolicy{
		MaxAttempts: 60,
		BaseBackoff: 50 * sim.Millisecond,
		MaxBackoff:  sim.Second,
	}
	var readers []*core.Client
	for i := 0; i < cfg.Clients; i++ {
		node := nw.NewNode(fmt.Sprintf("edge-c%d", i))
		nw.DuplexLink(fmt.Sprintf("edge-c%d-eth", i), node, edgeSW, 2*units.Gbps, lanDelay)
		readers = append(readers, core.NewClient(prod.Cluster, fmt.Sprintf("edge%d", i), node, ccfg,
			core.Identity{DN: fmt.Sprintf("/O=Edge/CN=reader%d", i)}))
	}
	seeder := prod.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]

	var start sim.Time
	var readErrs int
	cfg.Env.run(s, func(p *sim.Proc) error {
		sm, err := seeder.MountLocal(p, prod.FS)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.Clients; i++ {
			if err := seedFile(p, sm, fmt.Sprintf("/data%02d.dat", i), cfg.FileSize, 8*units.MiB); err != nil {
				return err
			}
		}
		mounts, err := MountAll(p, readers, prod.FS, "")
		if err != nil {
			return err
		}
		start = p.Now()
		end := start + cfg.Duration

		// The fault script: server 0 dies mid-run and restarts after the
		// outage. Striping places every eighth block on it, so every
		// sequential reader stalls within a few blocks of the crash.
		fault.NewPlan("server-crash").
			ServerCrash(start+cfg.CrashAt, cfg.Outage, prod.FS.Servers()[0]).
			Install(s)

		wg := sim.NewWaitGroup(s)
		for i, m := range mounts {
			m, i := m, i
			wg.Add(1)
			s.Go(fmt.Sprintf("reader%d", i), func(rp *sim.Proc) {
				defer wg.Done()
				f, err := m.Open(rp, fmt.Sprintf("/data%02d.dat", i))
				if err != nil {
					readErrs++
					return
				}
				// The reader stops mid-file at end and rides out read
				// errors, so it keeps its own loop.
				for rp.Now() < end {
					for off := units.Bytes(0); off < f.Size() && rp.Now() < end; off += cfg.BlockSize {
						if err := f.ReadAt(rp, off, min(cfg.BlockSize, f.Size()-off)); err != nil {
							readErrs++
							rp.Sleep(100 * sim.Millisecond)
						}
					}
					m.DropCaches() // next pass re-fetches over the WAN
				}
			})
		}
		wg.Wait(p)
		return nil
	})

	crash := cfg.CrashAt.Seconds()
	restart := (cfg.CrashAt + cfg.Outage).Seconds()
	ser := mon.SeriesGbps().From("WAN bandwidth", start.Seconds())
	res.Add(ser)

	// The Fig. 5 quantities, computed instead of eyeballed: baseline from
	// t=1 (skipping the ramp) to the crash, minimum and mean across the
	// outage, recovery at the first post-restart window back to >= 90% of
	// baseline.
	rep := timeline.AnalyzeDip(ser.Points, 1, crash, restart, cfg.Duration.Seconds(), 0.9)

	// How unevenly the surviving servers carried the outage: CoV across
	// per-server serve rates, window by window.
	cov := timeline.CoVSeries(tl.Prefix("nsd."), "NSD load CoV").From("NSD load CoV", start.Seconds())
	peakCoV := 0.0
	for _, p := range cov.Points {
		if p.X >= crash && p.X < restart && p.Y > peakCoV {
			peakCoV = p.Y
		}
	}
	res.Add(cov)

	res.Headline["pre-fault Gb/s"] = rep.Baseline
	res.Headline["dip Gb/s"] = rep.Dip
	res.Headline["dip depth %"] = rep.DipDepthPct()
	res.Headline["outage Gb/s"] = rep.OutageMean
	res.Headline["post-recovery Gb/s"] = rep.Recovered
	res.Headline["recovery ratio"] = rep.Ratio
	res.Headline["time to recover s"] = rep.TimeToRecover
	res.Headline["peak NSD CoV (outage)"] = peakCoV
	res.Headline["read errors"] = float64(readErrs)
	res.Note(fmt.Sprintf("NSD server crash at t=%vs, restart at t=%vs; recovery is automatic (retry + re-probe)",
		cfg.CrashAt.Seconds(), restart))
	return res
}
