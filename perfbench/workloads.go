package main

import (
	"fmt"
	"math/rand"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// Workload sizes. The modeled machines are the experiments' own; only
// bytes and cycles are chosen here. Every workload makes thousands of
// timed calls of each kind it uses, so a p99 has well over ten samples
// beyond it.
const (
	wanSizePer = 256 * units.MiB // per ANL client: 256 ReadAt calls of 1 MiB
	mpiNodes   = 128
	// Two decimal MPI blocks per rank: block boundaries straddle 1 MiB
	// pages, so write-behind pays RAID5 read-modify-write.
	mpiBlocksPer   = 2
	stormClients   = 256
	stormCycles    = 60
	stormShards    = 4
	stormStagger   = 17 * sim.Microsecond // RunMetastorm's per-client stagger
	wanMaxStagger  = 2 * sim.Millisecond
	mpiMaxStagger  = 2 * sim.Millisecond
	seedIOSize     = 8 * units.MiB // RunANL's seeding write size
	ethEfficiency  = 0.94
	recomputeFloor = 200 * sim.Microsecond
	recomputePer   = 400 * sim.Nanosecond
)

// workload is one benchmark input: a topology and a closed-loop driver.
// Why each was chosen is in BENCHMARK.json and GLOSSARY.md.
type workload struct {
	name string
	run  func(it *iter)
}

var workloads = []workload{
	{"wan_read", runWANRead},
	{"mpiio_rw", runMPIIO},
	{"metastorm", runMetastorm},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ethernetNet builds the network the Ethernet experiments use: links
// derated for framing, the recompute throttle, and the installed solve
// tolerance.
func ethernetNet(s *sim.Sim) *netsim.Network {
	nw := netsim.New(s)
	nw.SolveTolerance = experiments.SolveToleranceValue()
	nw.LinkEfficiency = ethEfficiency
	nw.MinRecomputeInterval = recomputeFloor
	nw.RecomputePerConn = recomputePer
	return nw
}

// productionSite stands up the 2005 SDSC farm the way the production
// experiments do: NSD servers on GbE in front of DS4100 arrays.
func productionSite(it *iter, nw *netsim.Network, cfg experiments.ProductionConfig) *experiments.Site {
	site := it.newSite(nw, "sdsc")
	site.BuildFS(experiments.FSOptions{
		Name: "gpfs-prod", BlockSize: cfg.BlockSize,
		Servers: cfg.Servers, ServerEth: units.Gbps,
		Arrays:    cfg.Arrays,
		ArrayCfg:  san.DS4100Config(),
		ServerHBA: san.FC2, HBAsPer: 1,
	})
	return site
}

// permutation returns identity for the canonical seed 0 and a seeded
// shuffle otherwise.
func permutation(rng *rand.Rand, n int) []int {
	if rng == nil {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rng.Perm(n)
}

// stagger draws a start delay in [0, max) for seeded inputs; seed 0 has
// none.
func stagger(rng *rand.Rand, max sim.Time) sim.Time {
	if rng == nil {
		return 0
	}
	return sim.Time(rng.Int63n(int64(max)))
}

func sleep(p *sim.Proc, d sim.Time) {
	if d > 0 {
		p.Sleep(d)
	}
}

func anlConfig() experiments.ANLConfig {
	cfg := experiments.DefaultANLConfig()
	cfg.SizePer = wanSizePer
	return cfg
}

func runWANRead(it *iter) {
	cfg := anlConfig()
	rng := it.rng()
	files := permutation(rng, cfg.ANLNodes)
	delays := make([]sim.Time, cfg.ANLNodes)
	for i := range delays {
		delays[i] = stagger(rng, wanMaxStagger)
	}

	s := experiments.NewSim()
	nw := ethernetNet(s)
	site := productionSite(it, nw, cfg.Production)
	anl := it.newSite(nw, "anl")
	nw.DuplexLink("teragrid-anl", site.Switch, anl.Switch, cfg.WANRate, cfg.WANDelay)
	device := experiments.Peer(site, anl, auth.ReadWrite)
	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = 32
	clients := anl.AddClients(cfg.ANLNodes, units.Gbps, ccfg)
	seeder := site.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]
	it.attach(s, nw, site, anl)
	it.plan(opRead, cfg.ANLNodes*int(cfg.SizePer/units.MiB))
	it.plan(opOpen, cfg.ANLNodes)

	it.drive(func(p *sim.Proc) error {
		sm, err := seeder.MountLocal(p, site.FS)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.ANLNodes; i++ {
			if err := seedFile(p, sm, fmt.Sprintf("/remote%02d.dat", i), cfg.SizePer); err != nil {
				return err
			}
		}
		mounts, err := it.mountAll(p, clients, nil, device)
		if err != nil {
			return err
		}
		if !it.begin(p, mounts) {
			return nil
		}
		ph := it.phase(p, "read")
		wg := sim.NewWaitGroup(s)
		for i, m := range mounts {
			i, m := i, m
			wg.Add(1)
			s.Go("anl-read", func(rp *sim.Proc) {
				defer wg.Done()
				sleep(rp, delays[i])
				var f *core.File
				if it.call(rp, opOpen, 0, func() (err error) {
					f, err = m.Open(rp, fmt.Sprintf("/remote%02d.dat", files[i]))
					return err
				}) != nil {
					return
				}
				if f.Size() != cfg.SizePer {
					it.wrong("client %d: file size %d, want %d", i, f.Size(), cfg.SizePer)
				}
				for off := units.Bytes(0); off < f.Size(); off += units.MiB {
					if it.call(rp, opRead, units.MiB, func() error { return f.ReadAt(rp, off, units.MiB) }) != nil {
						return
					}
				}
			})
		}
		wg.Wait(p)
		ph.end(p)
		return nil
	})
	it.wantBytes(opRead, units.Bytes(cfg.ANLNodes)*cfg.SizePer)
}

// seedFile writes a sized file through a mount, exactly as the ANL
// experiment seeds its inputs.
func seedFile(p *sim.Proc, m *core.Mount, name string, size units.Bytes) error {
	f, err := m.Create(p, name, core.DefaultPerm)
	if err != nil {
		return err
	}
	for off := units.Bytes(0); off < size; off += seedIOSize {
		ln := seedIOSize
		if off+ln > size {
			ln = size - off
		}
		if err := f.WriteAt(p, off, ln); err != nil {
			return err
		}
	}
	return f.Close(p)
}

func productionConfig() experiments.ProductionConfig {
	cfg := experiments.DefaultProductionConfig()
	cfg.NodeCounts = []int{mpiNodes}
	cfg.SizePer = mpiBlocksPer * cfg.MPIBlock
	return cfg
}

func runMPIIO(it *iter) {
	cfg := productionConfig()
	rng := it.rng()
	ranks := permutation(rng, mpiNodes)
	delays := make([]sim.Time, 2*mpiNodes)
	for i := range delays {
		delays[i] = stagger(rng, mpiMaxStagger)
	}

	s := experiments.NewSim()
	nw := ethernetNet(s)
	site := productionSite(it, nw, cfg)
	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = 16
	ccfg.WriteBehind = 16
	ccfg.TokenChunk = int64(cfg.MPIBlock / cfg.BlockSize)
	clients := site.AddClients(mpiNodes, units.Gbps, ccfg)
	it.attach(s, nw, site)
	transfers := mpiNodes * mpiBlocksPer * int((cfg.MPIBlock+cfg.Transfer-1)/cfg.Transfer)
	it.plan(opWrite, transfers)
	it.plan(opRead, transfers)
	it.plan(opMeta, 1)
	it.plan(opOpen, 2*mpiNodes)
	it.plan(opClose, mpiNodes)
	total := cfg.SizePer * mpiNodes

	it.drive(func(p *sim.Proc) error {
		mounts, err := it.mountAll(p, clients, site.FS, "")
		if err != nil {
			return err
		}
		if !it.begin(p, mounts) {
			return nil
		}
		byRank := make([]*core.Mount, mpiNodes)
		for r, c := range ranks {
			byRank[r] = mounts[c]
		}
		// Reads shift ranks by one so every rank reads blocks another
		// client wrote: pagepools are cold and reads go to the servers.
		shifted := append(append([]*core.Mount{}, byRank[1:]...), byRank[0])
		path := "/ior.dat"
		if it.call(p, opMeta, 0, func() error {
			_, err := byRank[0].Create(p, path, core.DefaultPerm)
			return err
		}) != nil {
			return nil
		}
		mpiPhase(it, p, "write", byRank, path, cfg, delays[:mpiNodes])
		mpiPhase(it, p, "read", shifted, path, cfg, delays[mpiNodes:])
		// Checked after both phases: an extra call between them would
		// shift the read phase against RunProductionScaling's.
		if st, err := byRank[0].Stat(p, path); err != nil || st.Size != total {
			it.wrong("%s: size %d (err %v), want %d", path, st.Size, err, total)
		}
		return nil
	})
	it.wantBytes(opWrite, total)
	it.wantBytes(opRead, total)
}

// mpiPhase is workload.MPIIO with every call timed: ranks own
// interleaved BlockSize regions of one shared file and move SizePer
// bytes each in Transfer-sized calls; writers close the file.
func mpiPhase(it *iter, p *sim.Proc, name string, mounts []*core.Mount, path string, cfg experiments.ProductionConfig, delays []sim.Time) {
	s := p.Sim()
	write := name == "write"
	nt := len(mounts)
	total := cfg.SizePer * units.Bytes(nt)
	ph := it.phase(p, name)
	wg := sim.NewWaitGroup(s)
	for rank := 0; rank < nt; rank++ {
		rank := rank
		m := mounts[rank]
		wg.Add(1)
		s.Go(fmt.Sprintf("mpi%d", rank), func(tp *sim.Proc) {
			defer wg.Done()
			sleep(tp, delays[rank])
			var f *core.File
			if it.call(tp, opOpen, 0, func() (err error) {
				f, err = m.Open(tp, path)
				return err
			}) != nil {
				return
			}
			moved := units.Bytes(0)
			for blk := int64(rank); moved < cfg.SizePer; blk += int64(nt) {
				base := units.Bytes(blk) * cfg.MPIBlock
				if base >= total {
					break
				}
				for off := units.Bytes(0); off < cfg.MPIBlock && moved < cfg.SizePer; off += cfg.Transfer {
					ln := cfg.Transfer
					if off+ln > cfg.MPIBlock {
						ln = cfg.MPIBlock - off
					}
					var err error
					if write {
						err = it.call(tp, opWrite, ln, func() error { return f.WriteAt(tp, base+off, ln) })
					} else {
						err = it.call(tp, opRead, ln, func() error { return f.ReadAt(tp, base+off, ln) })
					}
					if err != nil {
						return
					}
					moved += ln
				}
			}
			if write {
				it.call(tp, opClose, 0, func() error { return f.Close(tp) })
			}
		})
	}
	wg.Wait(p)
	ph.end(p)
}

func metastormConfig() experiments.MetastormConfig {
	cfg := experiments.DefaultMetastormConfig()
	cfg.Clients = stormClients
	cfg.Cycles = stormCycles
	cfg.Shards = []int{stormShards}
	return cfg
}

func runMetastorm(it *iter) {
	cfg := metastormConfig()
	rng := it.rng()
	order := make([][]int, cfg.Clients)
	delays := make([]sim.Time, cfg.Clients)
	for i := range order {
		order[i] = permutation(rng, cfg.Cycles)
		delays[i] = sim.Time(i) * stormStagger
		if rng != nil {
			delays[i] = stagger(rng, sim.Time(cfg.Clients)*stormStagger)
		}
	}

	s := experiments.NewSim()
	nw := ethernetNet(s)
	site := it.newSite(nw, "storm")
	site.BuildFS(experiments.FSOptions{
		Name: "gpfs-meta", BlockSize: cfg.BlockSize,
		Servers: cfg.Servers, ServerEth: units.Gbps,
		StoreRate: 400 * units.MBps, StoreCap: 100 * units.GB, StoreStreams: 8,
	})
	site.FS.SetTokenShards(stormShards)
	clients := site.AddClients(cfg.Clients, units.Gbps, core.DefaultClientConfig())
	it.attach(s, nw, site)
	it.plan(opMeta, cfg.Clients*cfg.Cycles*3)
	it.plan(opWrite, cfg.Clients*cfg.Cycles)
	it.plan(opClose, cfg.Clients*cfg.Cycles)

	it.drive(func(p *sim.Proc) error {
		mounts, err := it.mountAll(p, clients, site.FS, "")
		if err != nil {
			return err
		}
		if err := mounts[0].Mkdir(p, "/storm"); err != nil {
			return err
		}
		if err := mounts[0].Chmod(p, "/storm", core.DefaultPerm|core.WorldWrite); err != nil {
			return err
		}
		if !it.begin(p, mounts) {
			return nil
		}
		ph := it.phase(p, "storm")
		wg := sim.NewWaitGroup(s)
		for i, m := range mounts {
			i, m := i, m
			wg.Add(1)
			s.Go(fmt.Sprintf("storm-c%d", i), func(cp *sim.Proc) {
				defer wg.Done()
				// RunMetastorm sleeps even for a zero stagger; so must
				// the canonical input, event for event.
				cp.Sleep(delays[i])
				for _, c := range order[i] {
					path := fmt.Sprintf("/storm/c%03d-f%04d", i, c)
					var f *core.File
					if it.call(cp, opMeta, 0, func() (err error) {
						f, err = m.Create(cp, path, core.DefaultPerm)
						return err
					}) != nil {
						return
					}
					if it.call(cp, opWrite, cfg.FileSize, func() error { return f.WriteAt(cp, 0, cfg.FileSize) }) != nil {
						return
					}
					if it.call(cp, opClose, 0, func() error { return f.Close(cp) }) != nil {
						return
					}
					var st core.Attrs
					if it.call(cp, opMeta, 0, func() (err error) {
						st, err = m.Stat(cp, path)
						return err
					}) != nil {
						return
					}
					if st.Size != cfg.FileSize {
						it.wrong("%s: size %d, want %d", path, st.Size, cfg.FileSize)
					}
					if it.call(cp, opMeta, 0, func() error { return m.Remove(cp, path) }) != nil {
						return
					}
				}
			})
		}
		wg.Wait(p)
		ph.end(p)
		if left, err := mounts[0].List(p, "/storm"); err != nil || len(left) != 0 {
			it.wrong("after the storm /storm holds %d entries (err %v)", len(left), err)
		}
		return nil
	})
	it.wantBytes(opWrite, units.Bytes(cfg.Clients*cfg.Cycles)*cfg.FileSize)
}
