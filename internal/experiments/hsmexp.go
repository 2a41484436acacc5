package experiments

import (
	"fmt"

	"gfs/internal/hsm"
	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// HSMConfig parameterizes the §8 future-work scenario.
type HSMConfig struct {
	DiskPool units.Bytes
	Drives   int
	Carts    int
	Files    int
	FileSize units.Bytes
	Accesses int
	Env      Env // observability for the run
}

// DefaultHSMConfig models a scaled-down archive-backed GFS: the disk pool
// holds a fraction of the dataset, the rest lives on tape.
func DefaultHSMConfig() HSMConfig {
	return HSMConfig{
		DiskPool: 2 * units.TB,
		Drives:   4,
		Carts:    64,
		Files:    40,
		FileSize: 80 * units.GB,
		Accesses: 24,
	}
}

// RunHSM regenerates the §8 scenario: data migrates to tape as it cools,
// and recalls are automatic but expensive — quantifying the latency cliff
// between resident and migrated data that motivates "copyright library"
// archive sites.
func RunHSM(cfg HSMConfig) *Result {
	res := NewResult("E9", "HSM watermark migration and transparent recall")
	s := cfg.Env.NewSim()
	lib := hsm.NewLibrary(s, "silo", cfg.Drives, cfg.Carts, hsm.LTO2())
	mgr := hsm.NewManager(s, "gfs-hsm", lib, cfg.DiskPool)

	resident := metrics.NewSummary("resident access s")
	recall := metrics.NewSummary("recall access s")
	cfg.Env.run(s, func(p *sim.Proc) error {
		// Ingest a dataset 1.6x the disk pool: migration must kick in.
		for i := 0; i < cfg.Files; i++ {
			if err := mgr.Ingest(p, fmt.Sprintf("/archive/run%03d", i), cfg.FileSize); err != nil {
				return err
			}
			p.Sleep(10 * sim.Minute) // datasets arrive over days
		}
		// Access pattern: alternate hot (recent) and cold (old) files.
		for a := 0; a < cfg.Accesses; a++ {
			var name string
			if a%2 == 0 {
				name = fmt.Sprintf("/archive/run%03d", cfg.Files-1-a%8)
			} else {
				name = fmt.Sprintf("/archive/run%03d", a%8)
			}
			t0 := p.Now()
			prev, err := mgr.Access(p, name)
			if err != nil {
				return err
			}
			el := (p.Now() - t0).Seconds()
			if prev == hsm.Migrated {
				recall.Observe(el)
			} else {
				resident.Observe(el)
			}
			p.Sleep(sim.Minute)
		}
		return nil
	})

	res.Headline["migrations"] = float64(mgr.Migrations())
	res.Headline["recalls"] = float64(mgr.Recalls())
	res.Headline["mean recall s"] = recall.Mean()
	res.Headline["max recall s"] = recall.Max()
	res.Headline["mean resident s"] = resident.Mean()
	res.Headline["disk pool TB"] = float64(cfg.DiskPool) / 1e12
	res.Headline["dataset TB"] = float64(cfg.Files) * float64(cfg.FileSize) / 1e12
	res.Note("recalls stream a whole file from LTO-2 at ~30 MB/s plus mount time — minutes, not milliseconds")
	return res
}
