package experiments

import (
	"fmt"

	"gfs/internal/disk"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// StorCloudConfig parameterizes the SC'04 show-floor local rate check.
type StorCloudConfig struct {
	Servers   int // 40 IA64 servers
	HBAsPer   int // 3 x 2 Gb/s FC HBAs each (120 links to StorCloud)
	Arrays    int
	ArrayCfg  san.ArrayConfig
	PerServer units.Bytes // bytes each server streams
	IOSize    units.Bytes
	Env       Env // observability for the run
}

// DefaultStorCloudConfig approximates the ~160 TB StorCloud loaner pool:
// 30 enclosures of 28 drives (three 8+P sets + spare) with dual 2 Gb/s
// controllers.
func DefaultStorCloudConfig() StorCloudConfig {
	return StorCloudConfig{
		Servers: 40,
		HBAsPer: 3,
		Arrays:  30,
		ArrayCfg: san.ArrayConfig{
			Sets: 3, MembersPer: 9, Spares: 1, StripeUnit: 256 * units.KiB,
			Drive: disk.SATA250(), CtrlRate: san.FC2, CtrlStreams: 6,
		},
		PerServer: 8 * units.GiB,
		IOSize:    8 * units.MiB,
	}
}

// RunStorCloudLocal regenerates the §4 headline: "approximately 15 GB/s
// was obtained in file system transfer rates on the show floor" against a
// 30 GB/s theoretical disk-to-server aggregate.
func RunStorCloudLocal(cfg StorCloudConfig) *Result {
	res := NewResult("E3b", "SC'04 StorCloud local transfer rate, 40 servers x 3 FC HBAs")
	s := cfg.Env.NewSim()
	nw := cfg.Env.newNet(s)
	nw.MinRecomputeInterval = 100 * sim.Microsecond
	nw.DefaultTCP = netsim.TCPConfig{} // all FC, credit flow control
	f := san.NewFabric(s, nw)
	sw := f.Switch("storcloud")

	var arrays []*san.Array
	for i := 0; i < cfg.Arrays; i++ {
		arrays = append(arrays, f.NewArray(fmt.Sprintf("sc%02d", i), sw, cfg.ArrayCfg))
	}
	var eps []*netsim.Endpoint
	for i := 0; i < cfg.Servers; i++ {
		node := nw.NewNode(fmt.Sprintf("ia64-%02d", i))
		f.AttachHBA(node, sw, san.FC2, cfg.HBAsPer)
		eps = append(eps, nw.NewEndpoint(node, cfg.HBAsPer*2))
	}

	var moved units.Bytes
	var elapsed sim.Time
	cfg.Env.run(s, func(p *sim.Proc) error {
		g := sim.NewGroup(s)
		t0 := p.Now()
		for i, ep := range eps {
			i, ep := i, ep
			g.Go("stream", func(sp *sim.Proc) error {
				// Stripe across arrays and LUNs, GPFS-style, so no single
				// controller pins the server's three HBAs.
				window := sim.NewResource(s, "w", 12)
				reads := sim.NewGroup(s)
				j := 0
				for off := units.Bytes(0); off < cfg.PerServer; off += cfg.IOSize {
					arr := arrays[(i+j)%len(arrays)]
					lun := ((i + j) / len(arrays)) % len(arr.Sets)
					window.Acquire(sp, 1)
					reads.Add(1)
					lunOff := (units.Bytes(j) * cfg.IOSize) % (arr.Sets[lun].Capacity() - cfg.IOSize)
					arr.GoReadLUN(ep, sp.Ctx(), lun, lunOff, cfg.IOSize, func(err error) {
						moved += cfg.IOSize
						window.Release(1)
						reads.Done(err)
					})
					j++
				}
				return reads.Wait(sp)
			})
		}
		err := g.Wait(p)
		elapsed = p.Now() - t0
		return err
	})

	rate := float64(moved) / elapsed.Seconds()
	res.Headline["aggregate GB/s"] = rate / 1e9
	res.Headline["theoretical GB/s"] = float64(cfg.Servers*cfg.HBAsPer) * 2e9 / 8 / 1e9 // 120 x 2 Gb/s
	res.Headline["controller cap GB/s"] = float64(cfg.Arrays) * 2 * 2e9 / 8 / 1e9
	res.Note("paper: ~15 GB/s obtained of ~30 GB/s theoretical between StorCloud disks and booth servers")
	return res
}
