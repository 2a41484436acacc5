package experiments

import (
	"fmt"

	"gfs/internal/core"
	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// MetastormConfig sizes the metadata-storm experiment: the NorduGrid
// small-file pattern (§6) that a single token/metadata manager serves
// one RPC at a time, and that the sharded plane exists to spread out.
type MetastormConfig struct {
	Servers   int         // NSD servers (shard homes)
	Clients   int         // concurrent metadata-storm clients
	Cycles    int         // create/write/stat/remove cycles per client
	FileSize  units.Bytes // payload per file — small, the point of the storm
	BlockSize units.Bytes
	Shards    []int // arms: token-shard counts (0 = central manager only)
	Env       Env   // observability for the run
}

// DefaultMetastormConfig keeps the storm small enough for CI while
// leaving the single manager clearly wire-bound: hundreds of clients
// funneling ~200-byte metadata RPCs into one GbE NIC.
func DefaultMetastormConfig() MetastormConfig {
	return MetastormConfig{
		Servers:   8,
		Clients:   256,
		Cycles:    30,
		FileSize:  units.KiB,
		BlockSize: 256 * units.KiB,
		Shards:    []int{0, 4, 8},
	}
}

// RunMetastorm drives the create/stat/remove storm against each arm and
// reports aggregate metadata ops/sec plus the share of virtual time the
// storm spent blocked inside metadata RPCs (client-observed manager
// queue + wire wait — the critical-path term sharding attacks). Full
// per-phase attribution is available by running the experiment under
// -attr; the headline share is the storm's own bookkeeping and needs no
// tracer.
func RunMetastorm(cfg MetastormConfig) *Result {
	res := NewResult("E9", "Metadata storm: sharded token/metadata plane vs central manager")
	opsSer := &metrics.Series{Name: "meta ops/s", XLabel: "token shards", YLabel: "ops/s"}
	waitSer := &metrics.Series{Name: "meta wait share", XLabel: "token shards", YLabel: "fraction"}

	var baseline float64
	for _, shards := range cfg.Shards {
		ops, waitShare := runMetastormArm(cfg, shards)
		opsSer.Add(float64(shards), ops)
		waitSer.Add(float64(shards), waitShare)
		res.Headline[fmt.Sprintf("ops/s @%d shards", shards)] = ops
		res.Headline[fmt.Sprintf("meta wait share @%d shards", shards)] = waitShare
		if shards == 0 {
			baseline = ops
		} else if baseline > 0 {
			res.Headline[fmt.Sprintf("speedup @%d shards", shards)] = ops / baseline
		}
	}
	res.Add(opsSer)
	res.Add(waitSer)
	res.Note("%d clients x %d cycles of create/write(%s)/stat/remove in one striped directory",
		cfg.Clients, cfg.Cycles, cfg.FileSize)
	res.Note("single manager serializes ~200-byte metadata RPCs on one GbE NIC; shards ride the NSD servers' NICs")
	return res
}

// runMetastormArm runs one arm and returns (metadata ops/sec, fraction
// of client-time blocked in metadata RPCs).
func runMetastormArm(cfg MetastormConfig, shards int) (float64, float64) {
	s := cfg.Env.NewSim()
	nw := cfg.Env.newEthernetNet(s)
	site := cfg.Env.NewSite(s, nw, "storm")
	site.BuildFS(FSOptions{
		Name: "gpfs-meta", BlockSize: cfg.BlockSize,
		Servers: cfg.Servers, ServerEth: units.Gbps,
		StoreRate: 400 * units.MBps, StoreCap: 100 * units.GB, StoreStreams: 8,
	})
	site.FS.SetTokenShards(shards)

	ccfg := core.DefaultClientConfig()
	clients := site.AddClients(cfg.Clients, units.Gbps, ccfg)

	var elapsed sim.Time
	var metaWait sim.Time
	cfg.Env.run(s, func(p *sim.Proc) error {
		mounts, err := MountAll(p, clients, site.FS, "")
		if err != nil {
			return err
		}
		if err := mounts[0].Mkdir(p, "/storm"); err != nil {
			return err
		}
		if err := mounts[0].Chmod(p, "/storm", core.DefaultPerm|core.WorldWrite); err != nil {
			return err
		}
		t0 := p.Now()
		g := sim.NewGroup(s)
		for i, m := range mounts {
			i, m := i, m
			g.Go(fmt.Sprintf("storm-c%d", i), func(cp *sim.Proc) error {
				// Deterministic stagger so the clients do not tick in
				// lockstep (no RNG: the arm must be byte-reproducible).
				cp.Sleep(sim.Time(i) * 17 * sim.Microsecond)
				for c := 0; c < cfg.Cycles; c++ {
					// Full-path hashing stripes this one directory's storm
					// across every shard.
					path := fmt.Sprintf("/storm/c%03d-f%04d", i, c)
					mt0 := cp.Now()
					f, err := m.Create(cp, path, core.DefaultPerm)
					metaWait += cp.Now() - mt0
					if err != nil {
						return err
					}
					if err := f.WriteAt(cp, 0, cfg.FileSize); err != nil {
						return err
					}
					if err := f.Close(cp); err != nil {
						return err
					}
					mt0 = cp.Now()
					if _, err := m.Stat(cp, path); err != nil {
						return err
					}
					if err := m.Remove(cp, path); err != nil {
						return err
					}
					metaWait += cp.Now() - mt0
				}
				return nil
			})
		}
		err = g.Wait(p)
		elapsed = p.Now() - t0
		return err
	})
	if elapsed <= 0 {
		return 0, 0
	}
	totalOps := float64(cfg.Clients) * float64(cfg.Cycles) * 3 // create+stat+remove
	share := float64(metaWait) / (float64(elapsed) * float64(cfg.Clients))
	return totalOps / elapsed.Seconds(), share
}
