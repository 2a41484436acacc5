package gfs

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md). Each benchmark runs a
// bench-scale configuration of the corresponding experiment — the same
// topology and workload shape at reduced data volume — and reports the
// simulated rates as custom metrics alongside the usual wall-clock cost of
// running the simulation itself. `go run ./cmd/gfssim -exp all` runs the
// full-size versions.

import (
	"testing"

	"gfs/internal/auth"
	"gfs/internal/disk"
	"gfs/internal/experiments"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// BenchmarkFig2_SC02 regenerates Fig. 2: the SC'02 FCIP read from SDSC to
// the Baltimore show floor at 80 ms RTT.
func BenchmarkFig2_SC02(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultSC02Config()
		cfg.FileSize = 8 * units.GB
		r := experiments.RunSC02(cfg)
		b.ReportMetric(r.Headline["sustained MB/s"], "simMB/s")
		b.ReportMetric(r.Headline["peak MB/s"], "simPeakMB/s")
	}
}

// BenchmarkFig5_SC03 regenerates Fig. 5: native WAN-GPFS bandwidth from
// the show floor to SDSC visualization nodes, including the restart dip.
func BenchmarkFig5_SC03(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultSC03Config()
		cfg.Servers = 20
		cfg.VizNodes = 16
		cfg.Files = 32
		cfg.FileSize = 512 * units.MiB
		r := experiments.RunSC03(cfg)
		b.ReportMetric(r.Headline["peak Gb/s"], "simPeakGb/s")
		b.ReportMetric(r.Headline["sustained GB/s"], "simGB/s")
	}
}

// BenchmarkFig8_SC04 regenerates Fig. 8: per-link and aggregate rates over
// three 10 GbE links while two sites run the sort application against the
// show-floor multi-cluster GPFS.
func BenchmarkFig8_SC04(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultSC04Config()
		cfg.Servers = 20
		cfg.SiteNodes = 16
		cfg.ReadFiles = 32
		cfg.FileSize = units.GiB
		cfg.WriteBytes = 512 * units.MiB
		cfg.Phases = 1
		r := experiments.RunSC04(cfg)
		b.ReportMetric(r.Headline["peak aggregate Gb/s"], "simAggGb/s")
		b.ReportMetric(r.Headline["peak per-link Gb/s"], "simLinkGb/s")
	}
}

// BenchmarkSC04_LocalStorCloud regenerates the §4 headline: ~15 GB/s local
// file system rate between the StorCloud disks and the booth servers.
func BenchmarkSC04_LocalStorCloud(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultStorCloudConfig()
		cfg.PerServer = 2 * units.GiB
		r := experiments.RunStorCloudLocal(cfg)
		b.ReportMetric(r.Headline["aggregate GB/s"], "simGB/s")
	}
}

// BenchmarkFig11_ProductionScaling regenerates Fig. 11: MPI-IO read and
// write rates versus node count on the 2005 production system (64 NSD
// servers, 32 DS4100s), including the read/write asymmetry.
func BenchmarkFig11_ProductionScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultProductionConfig()
		cfg.NodeCounts = []int{4, 16, 48}
		cfg.SizePer = 512 * units.MiB
		r := experiments.RunProductionScaling(cfg)
		b.ReportMetric(r.Headline["max read MB/s"], "simReadMB/s")
		b.ReportMetric(r.Headline["max write MB/s"], "simWriteMB/s")
		b.ReportMetric(r.Headline["read/write ratio"], "r/w")
	}
}

// BenchmarkANL_RemoteMount regenerates the §5 number: ~1.2 GB/s to all 32
// nodes at Argonne over the TeraGrid.
func BenchmarkANL_RemoteMount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultANLConfig()
		cfg.SizePer = 256 * units.MiB
		r := experiments.RunANL(cfg)
		b.ReportMetric(r.Headline["aggregate GB/s"], "simGB/s")
	}
}

// BenchmarkDEISA_CoreSites regenerates §7: every pairing of the four
// DEISA core sites sustains >100 MB/s over 1 Gb/s links.
func BenchmarkDEISA_CoreSites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultDEISAConfig()
		cfg.FileSize = units.GiB
		r := experiments.RunDEISA(cfg)
		b.ReportMetric(r.Headline["min pair MB/s"], "simMinMB/s")
		b.ReportMetric(r.Headline["max pair MB/s"], "simMaxMB/s")
	}
}

// BenchmarkParadigm_GFSvsGridFTP regenerates the §1/§8 motivating
// comparison: direct GFS access vs wholesale GridFTP movement for
// NVO-style partial queries.
func BenchmarkParadigm_GFSvsGridFTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultParadigmConfig()
		cfg.FileSize = 20 * units.GB
		cfg.Queries = 200
		r := experiments.RunParadigm(cfg)
		b.ReportMetric(r.Headline["speedup"], "speedup")
		b.ReportMetric(r.Headline["byte amplification (GridFTP)"], "byteAmp")
	}
}

// BenchmarkHSM_MigrateRecall regenerates the §8 future-work scenario:
// watermark migration to tape and the recall latency cliff.
func BenchmarkHSM_MigrateRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunHSM(experiments.DefaultHSMConfig())
		b.ReportMetric(r.Headline["mean recall s"], "simRecall_s")
		b.ReportMetric(r.Headline["migrations"], "migrations")
	}
}

// --- §6 authentication microbenchmarks (real cryptography, wall time) ---

// BenchmarkAuth_Handshake measures the three-message RSA cluster
// handshake (mmauth model) in real CPU time.
func BenchmarkAuth_Handshake(b *testing.B) {
	ka, kb := auth.NewKey("sdsc"), auth.NewKey("ncsa")
	imp := auth.NewRegistry(kb, auth.AuthOnly)
	exp := auth.NewRegistry(ka, auth.AuthOnly)
	if err := imp.AddRemote("sdsc", ka.PublicPEM()); err != nil {
		b.Fatal(err)
	}
	if err := exp.AddRemote("ncsa", kb.PublicPEM()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := imp.Authenticate(exp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuth_SealAuthOnly measures payload protection with cipherList
// AUTHONLY (no encryption) — the baseline for the cipher-overhead ablation.
func BenchmarkAuth_SealAuthOnly(b *testing.B) {
	benchSeal(b, auth.AuthOnly)
}

// BenchmarkAuth_SealAES128 measures AES-CTR + HMAC payload protection
// (cipherList AES128) — what encrypting file system traffic costs.
func BenchmarkAuth_SealAES128(b *testing.B) {
	benchSeal(b, auth.AES128)
}

func benchSeal(b *testing.B, mode auth.CipherMode) {
	ka, kb := auth.NewKey("a"), auth.NewKey("b")
	imp := auth.NewRegistry(kb, mode)
	exp := auth.NewRegistry(ka, mode)
	_ = imp.AddRemote("a", ka.PublicPEM())
	_ = exp.AddRemote("b", kb.PublicPEM())
	cs, ss, err := imp.Authenticate(exp)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed := cs.Seal(payload)
		if _, err := ss.Open(sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblation_ReadAhead sweeps prefetch depth at 80 ms RTT — the
// mechanism that made SC'02 work. Reported: simulated MB/s at each depth.
func BenchmarkAblation_ReadAhead(b *testing.B) {
	for _, ra := range []int{0, 4, 16, 64} {
		b.Run(benchName("depth", ra), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(wanStreamRate(b, ra, 40*sim.Millisecond, 0), "simMB/s")
			}
		})
	}
}

// BenchmarkAblation_WindowRTT sweeps the TCP window cap across RTTs,
// showing rate = window/RTT until the link saturates.
func BenchmarkAblation_WindowRTT(b *testing.B) {
	for _, rttMS := range []int{1, 20, 80} {
		b.Run(benchName("rttms", rttMS), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(wanStreamRate(b, 32, sim.Time(rttMS)*sim.Millisecond/2, 4*units.MiB), "simMB/s")
			}
		})
	}
}

// BenchmarkAblation_RAID5Penalty compares full-stripe and partial-stripe
// write service on one 8+P set — our explanation for Fig. 11's read/write
// gap.
func BenchmarkAblation_RAID5Penalty(b *testing.B) {
	run := func(partial bool) float64 {
		s, set := newBenchRAID()
		var bytes units.Bytes
		s.Go("w", func(p *sim.Proc) {
			size := set.StripeWidth()
			if partial {
				size = units.MiB
			}
			for i := 0; i < 64; i++ {
				p.Await(func(done func()) { set.IO(disk.Write, units.Bytes(i)*set.StripeWidth(), size, done) })
				bytes += size
			}
		})
		s.Run()
		return float64(bytes) / s.Now().Seconds() / 1e6
	}
	for i := 0; i < b.N; i++ {
		full := run(false)
		partial := run(true)
		b.ReportMetric(full, "simFullMB/s")
		b.ReportMetric(partial, "simPartialMB/s")
		b.ReportMetric(full/partial, "penalty")
	}
}

// BenchmarkAblation_StripeWidth sweeps the NSD server count a stream is
// striped across.
func BenchmarkAblation_StripeWidth(b *testing.B) {
	for _, servers := range []int{1, 4, 16} {
		b.Run(benchName("servers", servers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(stripeRate(b, servers, units.MiB), "simMB/s")
			}
		})
	}
}

// BenchmarkAblation_BlockSize sweeps the file system block size of a
// LAN stream striped across 8 NSD servers.
func BenchmarkAblation_BlockSize(b *testing.B) {
	for _, bs := range []units.Bytes{256 * units.KiB, units.MiB, 4 * units.MiB} {
		b.Run(benchName("KiB", int(bs/units.KiB)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(stripeRate(b, 8, bs), "simMB/s")
			}
		})
	}
}

// BenchmarkAblation_SC03Depth sweeps the read-ahead depth of one
// visualization client on the SC'03 show-floor topology: how much WAN
// pipeline does one reader need? The client NIC is raised to 10 GbE, so
// the answer is about pipelining, not the SC'03-era GbE NIC.
func BenchmarkAblation_SC03Depth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultSC03Config()
				cfg.VizNodes = 1
				cfg.Files = 2
				cfg.FileSize = 256 * units.MiB
				cfg.VizEth = 10 * units.Gbps
				cfg.ReadAhead = depth
				r := experiments.RunSC03(cfg)
				b.ReportMetric(r.Headline["client MB/s"], "simClientMB/s")
				b.ReportMetric(r.Headline["peak Gb/s"], "simPeakGb/s")
			}
		})
	}
}

// BenchmarkAblation_WriteGather writes then cold-reads 512 MiB through
// DS4100-backed RAID5 with stripe-aligned write gathering off and on:
// gathered write-back turns read-modify-write updates into full-stripe
// writes.
func BenchmarkAblation_WriteGather(b *testing.B) {
	for _, gather := range []int{0, 1} {
		b.Run(benchName("gather", gather), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := writeGatherRow(b, gather == 1)
				b.ReportMetric(r.writeMBps, "simWriteMB/s")
				b.ReportMetric(r.readMBps, "simReadMB/s")
				b.ReportMetric(float64(r.rmwWrites), "rmwWrites")
				b.ReportMetric(float64(r.fullStripeWrites), "fullStripeWrites")
				b.ReportMetric(float64(r.gatheredFlushes), "gatheredFlushes")
			}
		})
	}
}

// TestWriteGatherFloor keeps write gathering's reason to exist: on the
// ablation's 512 MiB sequential write, the gathered path writes at least
// 1.5x faster than the ungathered one and pays no RAID5
// read-modify-writes.
func TestWriteGatherFloor(t *testing.T) {
	t.Parallel()
	base, gath := writeGatherRow(t, false), writeGatherRow(t, true)
	if gath.writeMBps < 1.5*base.writeMBps {
		t.Errorf("gathered write %.1f MB/s is %.2fx the ungathered %.1f MB/s, below the 1.5x floor",
			gath.writeMBps, gath.writeMBps/base.writeMBps, base.writeMBps)
	}
	if gath.rmwWrites != 0 {
		t.Errorf("gathered path pays %d RAID5 read-modify-writes, want 0", gath.rmwWrites)
	}
}
