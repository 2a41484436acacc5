package experiments

import (
	"fmt"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/disk"
	"gfs/internal/gridftp"
	"gfs/internal/sim"
	"gfs/internal/units"
	"gfs/internal/workload"
)

// ParadigmConfig parameterizes the GFS-vs-GridFTP comparison (E7).
type ParadigmConfig struct {
	DatasetFiles int
	FileSize     units.Bytes
	Queries      int
	QuerySize    units.Bytes
	TouchedFiles int // distinct files the query session touches
	WANRate      units.BitsPerSec
	WANDelay     sim.Time
	Servers      int
	BlockSize    units.Bytes
	Streams      int // GridFTP parallel streams
	Env          Env // observability for the run
}

// DefaultParadigmConfig is an NVO-style scenario scaled down 50x: a
// 1 TB catalog of which a remote analysis session touches a few GB.
func DefaultParadigmConfig() ParadigmConfig {
	return ParadigmConfig{
		DatasetFiles: 20,
		FileSize:     50 * units.GB,
		Queries:      400,
		QuerySize:    4 * units.MiB,
		TouchedFiles: 8,
		WANRate:      10 * units.Gbps,
		WANDelay:     30 * sim.Millisecond,
		Servers:      16,
		BlockSize:    units.MiB,
		Streams:      8,
	}
}

// RunParadigm quantifies the paper's motivating argument (§1, §8): for
// database-style partial access to very large datasets, direct GFS I/O
// beats moving whole files with GridFTP — in time and, overwhelmingly, in
// bytes moved.
func RunParadigm(cfg ParadigmConfig) *Result {
	res := NewResult("E7", "Paradigm comparison: direct GFS access vs GridFTP wholesale movement")

	queryBytes := units.Bytes(cfg.Queries) * cfg.QuerySize

	// --- GFS side: remote mount + NVO query session ---
	var gfsTime sim.Time
	var gfsMoved units.Bytes
	{
		s := cfg.Env.NewSim()
		nw := cfg.Env.newEthernetNet(s)
		sdsc := cfg.Env.NewSite(s, nw, "sdsc")
		sdsc.BuildFS(FSOptions{
			Name: "nvo", BlockSize: cfg.BlockSize,
			Servers: cfg.Servers, ServerEth: units.Gbps,
			StoreRate: 400 * units.MBps, StoreCap: 100 * units.TB, StoreStreams: 8,
		})
		remote := cfg.Env.NewSite(s, nw, "analysis")
		nw.DuplexLink("wan", sdsc.Switch, remote.Switch, cfg.WANRate, cfg.WANDelay)
		device := Peer(sdsc, remote, auth.ReadOnly)
		ccfg := core.DefaultClientConfig()
		ccfg.ReadAhead = 4 // random queries: deep read-ahead wastes WAN
		client := remote.AddClients(1, 10*units.Gbps, ccfg)[0]
		seeder := sdsc.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]
		cfg.Env.run(s, func(p *sim.Proc) error {
			sm, err := seeder.MountLocal(p, sdsc.FS)
			if err != nil {
				return err
			}
			// Seed only the touched files (the rest of the 1 TB never moves).
			var names []string
			for i := 0; i < cfg.TouchedFiles; i++ {
				name := fmt.Sprintf("/catalog%02d.fits", i)
				if err := seedFile(p, sm, name, cfg.FileSize/8, 16*units.MiB); err != nil {
					return err
				}
				names = append(names, name)
			}
			m, err := client.MountRemote(p, device)
			if err != nil {
				return err
			}
			nvo := &workload.NVO{Mount: m, Files: names, Queries: cfg.Queries, QuerySize: cfg.QuerySize, Seed: 1}
			t0 := p.Now()
			r, err := nvo.Run(p)
			if err != nil {
				return err
			}
			gfsTime = p.Now() - t0
			rd := m.Stats().BytesRead
			gfsMoved = rd
			_ = r
			return nil
		})
	}

	// --- GridFTP side: fetch the touched files wholesale, then query locally ---
	var ftpTime sim.Time
	var ftpMoved units.Bytes
	{
		s := cfg.Env.NewSim()
		nw := cfg.Env.newEthernetNet(s)
		a := nw.NewNode("sdsc")
		b := nw.NewNode("analysis")
		nw.DuplexLink("wan", a, b, cfg.WANRate, cfg.WANDelay)
		srv := gridftp.NewServer(s, nw, a, ftpStore{s, 4 * units.GBps, 100 * units.TB}, cfg.Streams)
		cl := gridftp.NewClient(s, nw, b, cfg.Streams)
		for i := 0; i < cfg.TouchedFiles; i++ {
			srv.Put(fmt.Sprintf("/catalog%02d.fits", i), cfg.FileSize)
		}
		cfg.Env.run(s, func(p *sim.Proc) error {
			t0 := p.Now()
			for i := 0; i < cfg.TouchedFiles; i++ {
				n, err := cl.Fetch(p, srv, fmt.Sprintf("/catalog%02d.fits", i))
				if err != nil {
					return err
				}
				ftpMoved += n
			}
			// Local queries against scratch disk afterwards.
			local := disk.New(s, "scratch", disk.SATA250())
			for q := 0; q < cfg.Queries; q++ {
				local.Access(p, disk.Read, units.Bytes(q%1000)*cfg.QuerySize%(local.Params().Capacity-cfg.QuerySize), cfg.QuerySize)
			}
			ftpTime = p.Now() - t0
			return nil
		})
	}

	res.Headline["GFS session s"] = gfsTime.Seconds()
	res.Headline["GridFTP session s"] = ftpTime.Seconds()
	res.Headline["GFS bytes moved GB"] = float64(gfsMoved) / 1e9
	res.Headline["GridFTP bytes moved GB"] = float64(ftpMoved) / 1e9
	res.Headline["useful bytes GB"] = float64(queryBytes) / 1e9
	res.Headline["speedup"] = ftpTime.Seconds() / gfsTime.Seconds()
	res.Headline["byte amplification (GridFTP)"] = float64(ftpMoved) / float64(queryBytes)
	res.Note("the GFS moves only what the queries touch; GridFTP must move whole files before the first answer")
	return res
}

// ftpStore is a fixed-rate store for the GridFTP endpoint.
type ftpStore struct {
	s    *sim.Sim
	rate units.BytesPerSec
	cap  units.Bytes
}

// IO implements gridftp.Store.
func (f ftpStore) IO(p *sim.Proc, op disk.Op, off, size units.Bytes) error {
	p.Sleep(sim.FromSeconds(float64(size) / float64(f.rate)))
	return nil
}

// Capacity implements gridftp.Store.
func (f ftpStore) Capacity() units.Bytes { return f.cap }
