package experiments

import (
	"crypto/sha256"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// The full-size experiment configs run in the benchmark harness; tests use
// scaled-down versions to verify construction, plumbing and shape.

// conserved returns an Env that attributes every operation of the test's
// run and retains no trace events. When the test ends it checks the
// attribution: every op type's phases sum to its end-to-end total, and
// no operation is left open after the run drains.
func conserved(t *testing.T) Env {
	o := NewObs(ObsConfig{Trace: true, Discard: true})
	t.Cleanup(func() {
		if n := o.Agg.Open(); n != 0 {
			t.Errorf("%d operations still open after the run drained", n)
		}
		for _, s := range o.Agg.Report().Ops {
			var sum int64
			for _, d := range s.Phases {
				sum += d
			}
			if sum != s.TotalNs {
				t.Errorf("%s: phases sum to %d ns, end-to-end total is %d ns", s.Name, sum, s.TotalNs)
			}
		}
	})
	return Env{Obs: o}
}

func TestSC02Small(t *testing.T) {
	t.Parallel()
	cfg := DefaultSC02Config()
	cfg.Env = conserved(t)
	cfg.FileSize = 4 * units.GB
	r := RunSC02(cfg)
	if r.Headline["sustained MB/s"] < 400 {
		t.Errorf("sustained = %.0f MB/s, want > 400 (paper: 720)", r.Headline["sustained MB/s"])
	}
	if r.Headline["peak MB/s"] > r.Headline["path cap MB/s"]*1.05 {
		t.Errorf("peak %.0f exceeds path cap %.0f", r.Headline["peak MB/s"], r.Headline["path cap MB/s"])
	}
	if len(r.Series) == 0 || r.Series[0].Len() < 3 {
		t.Error("no time series produced")
	}
}

// smallSC03 is Fig. 5 on a 10-server booth and 12 viz nodes.
func smallSC03(env Env) SC03Config {
	cfg := DefaultSC03Config()
	cfg.Env = env
	cfg.Servers = 10
	cfg.VizNodes = 12
	cfg.Files = 24
	cfg.FileSize = 512 * units.MiB
	cfg.RestartGap = 4 * sim.Second
	return cfg
}

func TestSC03Small(t *testing.T) {
	t.Parallel()
	r := RunSC03(smallSC03(conserved(t)))
	if r.Headline["peak Gb/s"] < 6 {
		t.Errorf("peak = %.2f Gb/s, want > 6 (paper: 8.96 on 10GbE)", r.Headline["peak Gb/s"])
	}
	if r.Headline["peak Gb/s"] > 10.01 {
		t.Errorf("peak = %.2f Gb/s exceeds the link", r.Headline["peak Gb/s"])
	}
	// The restart gap must appear as a dip: some interior bin well below peak.
	ser := r.Series[0]
	dip := false
	for _, pt := range ser.Points[2 : ser.Len()-2] {
		if pt.Y < r.Headline["peak Gb/s"]*0.3 {
			dip = true
		}
	}
	if !dip {
		t.Error("no visible dip at the viz-app restart")
	}
}

// smallSC04 is Fig. 8 with 10 nodes per site and one sort phase.
func smallSC04(env Env) SC04Config {
	cfg := DefaultSC04Config()
	cfg.Env = env
	cfg.Servers = 12
	cfg.SiteNodes = 10
	cfg.ReadFiles = 20
	cfg.FileSize = 512 * units.MiB
	cfg.WriteBytes = 256 * units.MiB
	cfg.Phases = 1
	return cfg
}

func TestSC04Small(t *testing.T) {
	t.Parallel()
	cfg := smallSC04(conserved(t))
	r := RunSC04(cfg)
	if r.Headline["peak aggregate Gb/s"] < 8 {
		t.Errorf("aggregate peak = %.1f Gb/s, want > 8 with 20 GbE clients", r.Headline["peak aggregate Gb/s"])
	}
	if r.Headline["peak per-link Gb/s"] > 10.01 {
		t.Errorf("per-link peak %.1f exceeds 10 GbE", r.Headline["peak per-link Gb/s"])
	}
	if len(r.Series) != cfg.WANLinks+1 {
		t.Errorf("series = %d, want %d per-link + aggregate", len(r.Series), cfg.WANLinks+1)
	}
}

func TestStorCloudSmall(t *testing.T) {
	t.Parallel()
	cfg := DefaultStorCloudConfig()
	cfg.Env = conserved(t)
	cfg.Servers = 10
	cfg.Arrays = 8
	cfg.PerServer = 2 * units.GiB
	r := RunStorCloudLocal(cfg)
	// 10 servers x 3 HBA x 250 MB/s = 7.5 GB/s HBA-side; 8 arrays x 2 ctl
	// x 250 MB/s = 4 GB/s controller-side cap.
	if r.Headline["aggregate GB/s"] < 1.5 {
		t.Errorf("aggregate = %.2f GB/s, too low", r.Headline["aggregate GB/s"])
	}
	if r.Headline["aggregate GB/s"] > 4.05 {
		t.Errorf("aggregate = %.2f GB/s exceeds controller cap", r.Headline["aggregate GB/s"])
	}
}

func TestProductionSmall(t *testing.T) {
	t.Parallel()
	cfg := DefaultProductionConfig()
	cfg.Env = conserved(t)
	cfg.Servers = 16
	cfg.Arrays = 8
	cfg.NodeCounts = []int{2, 8, 16}
	cfg.SizePer = 256 * units.MiB
	r := RunProductionScaling(cfg)
	read, write := r.Series[0], r.Series[1]
	if read.Len() != 3 || write.Len() != 3 {
		t.Fatalf("series lens %d/%d", read.Len(), write.Len())
	}
	// Reads scale with node count until saturation.
	if !(read.Points[1].Y > read.Points[0].Y*2) {
		t.Errorf("read scaling broken: %v", read.Points)
	}
	// The paper's asymmetry: writes below reads at scale.
	if write.Points[2].Y >= read.Points[2].Y {
		t.Errorf("write %.0f >= read %.0f at 16 nodes; RAID5 penalty missing",
			write.Points[2].Y, read.Points[2].Y)
	}
}

// TestProductionOneNodeReadsCold: a lone rank has no other rank's region
// to read, so its read pass must still go to the NSD servers, not its own
// page pool, and cannot beat its 1 GbE NIC.
func TestProductionOneNodeReadsCold(t *testing.T) {
	t.Parallel()
	cfg := DefaultProductionConfig()
	cfg.Servers = 16
	cfg.Arrays = 8
	cfg.NodeCounts = []int{1}
	cfg.SizePer = 64 * units.MiB
	r := RunProductionScaling(cfg)
	if got := r.Headline["max read MB/s"]; got > 125 {
		t.Errorf("1-node read = %.1f MB/s, above the client's 125 MB/s NIC: served from its own cache", got)
	}
}

// TestRAIDEventConservation checks that a production run's RAID events
// balance. Every command a RAID set submits holds its drive's queue
// once and ends in one disk.service event, so on each simulator the
// disk.service count equals the TotalAcquired sum over the member drive
// queues. Every raid.member event starts one non-empty work list, so
// there are at least as many commands as member starts.
func TestRAIDEventConservation(t *testing.T) {
	t.Parallel()
	cfg := DefaultProductionConfig()
	o := NewObs(ObsConfig{Engine: true})
	cfg.Env = Env{Obs: o}
	cfg.Servers = 16
	cfg.Arrays = 8
	cfg.NodeCounts = []int{8}
	cfg.SizePer = 64 * units.MiB
	RunProductionScaling(cfg)
	member := regexp.MustCompile(`/set[0-9]+/d[0-9]+/q$`)
	if len(o.sims) == 0 {
		t.Fatal("no simulator observed")
	}
	for i, s := range o.sims {
		var acquired uint64
		for _, r := range s.Resources() {
			if member.MatchString(r.Name()) {
				acquired += r.TotalAcquired()
			}
		}
		kinds := map[string]uint64{}
		for _, k := range s.EngineProbe().Snapshot().Kinds {
			kinds[k.Name] = k.Count
		}
		service, starts := kinds["disk.service"], kinds["raid.member"]
		if acquired == 0 || service != acquired {
			t.Errorf("sim %d: %d disk.service events, member queues granted %d", i, service, acquired)
		}
		if starts == 0 || starts > service {
			t.Errorf("sim %d: %d raid.member events for %d commands", i, starts, service)
		}
	}
}

func TestANLSmall(t *testing.T) {
	t.Parallel()
	cfg := DefaultANLConfig()
	cfg.Env = conserved(t)
	cfg.Production.Servers = 16
	cfg.Production.Arrays = 8
	cfg.ANLNodes = 16
	cfg.SizePer = 256 * units.MiB
	r := RunANL(cfg)
	// 16 nodes x GbE = 2 GB/s demand against a 1.25 GB/s WAN: should land
	// near the WAN cap.
	if r.Headline["aggregate GB/s"] < 0.9 {
		t.Errorf("aggregate = %.2f GB/s, want near the 1.25 GB/s WAN cap", r.Headline["aggregate GB/s"])
	}
	if r.Headline["aggregate GB/s"] > 1.3 {
		t.Errorf("aggregate = %.2f GB/s exceeds the WAN", r.Headline["aggregate GB/s"])
	}
}

// smallDEISA is §7 on three sites of four servers.
func smallDEISA(env Env) DEISAConfig {
	cfg := DefaultDEISAConfig()
	cfg.Env = env
	cfg.Sites = []string{"cineca", "fzj", "rzg"}
	cfg.Servers = 4
	cfg.FileSize = 512 * units.MiB
	return cfg
}

func TestDEISASmall(t *testing.T) {
	t.Parallel()
	r := RunDEISA(smallDEISA(conserved(t)))
	if r.Headline["min pair MB/s"] < 100 {
		t.Errorf("min pair = %.0f MB/s, paper says >100", r.Headline["min pair MB/s"])
	}
	if r.Headline["max pair MB/s"] > 126 {
		t.Errorf("max pair = %.0f MB/s exceeds 1 Gb/s", r.Headline["max pair MB/s"])
	}
	if r.Series[0].Len() != 6 {
		t.Errorf("pairs = %d, want 6", r.Series[0].Len())
	}
}

func TestParadigmSmall(t *testing.T) {
	t.Parallel()
	cfg := DefaultParadigmConfig()
	cfg.Env = conserved(t)
	cfg.FileSize = 8 * units.GB
	cfg.Queries = 100
	cfg.TouchedFiles = 4
	r := RunParadigm(cfg)
	if r.Headline["speedup"] <= 1 {
		t.Errorf("GFS speedup = %.2f, want > 1 for partial access", r.Headline["speedup"])
	}
	if r.Headline["byte amplification (GridFTP)"] < 5 {
		t.Errorf("amplification = %.1f, want large", r.Headline["byte amplification (GridFTP)"])
	}
	if r.Headline["GFS bytes moved GB"] > 2*r.Headline["useful bytes GB"]+1 {
		t.Errorf("GFS moved %.1f GB for %.1f GB useful", r.Headline["GFS bytes moved GB"], r.Headline["useful bytes GB"])
	}
}

func TestHSMSmall(t *testing.T) {
	t.Parallel()
	cfg := DefaultHSMConfig()
	cfg.Env = conserved(t)
	cfg.Files = 12
	cfg.FileSize = 200 * units.GB
	cfg.DiskPool = units.TB
	cfg.Accesses = 10
	r := RunHSM(cfg)
	if r.Headline["migrations"] == 0 {
		t.Error("no migrations with dataset > pool")
	}
	if r.Headline["recalls"] == 0 {
		t.Error("no recalls triggered")
	}
	if r.Headline["mean recall s"] < 60 {
		t.Errorf("mean recall %.0f s; tape cannot be that fast", r.Headline["mean recall s"])
	}
	if r.Headline["mean resident s"] != 0 {
		t.Errorf("resident access took %.2f s", r.Headline["mean resident s"])
	}
}

func TestRegistryAndRendering(t *testing.T) {
	t.Parallel()
	if len(All()) != 12 {
		t.Errorf("registry has %d experiments, want 12", len(All()))
	}
	if _, ok := ByName("production"); !ok {
		t.Error("ByName(production) missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) found")
	}
	r := NewResult("X", "test")
	r.Headline["a metric"] = 1.5
	r.Note("hello %d", 7)
	out := r.String()
	for _, want := range []string{"== X: test ==", "a metric", "1.50", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// smallCache is §8 over six 64 MiB files and a 12-access trace.
func smallCache(env Env) CacheConfig {
	cfg := DefaultCacheConfig()
	cfg.Env = env
	cfg.Files = 6
	cfg.FileSize = 64 * units.MiB
	cfg.Budget = 512 * units.MiB
	cfg.Accesses = 12
	cfg.HotSet = 2
	return cfg
}

func TestCacheExperimentSmall(t *testing.T) {
	t.Parallel()
	r := RunCache(smallCache(conserved(t)))
	if r.Headline["speedup"] <= 1.5 {
		t.Errorf("cache speedup = %.2f, want > 1.5", r.Headline["speedup"])
	}
	if r.Headline["WAN reduction x"] <= 1.5 {
		t.Errorf("WAN reduction = %.2f", r.Headline["WAN reduction x"])
	}
	if r.Headline["cache hits"] == 0 {
		t.Error("no cache hits")
	}
}

// TestUnalignedFileSizes: a file size that is not a multiple of the
// experiment's I/O size ends in one short read, not a read past EOF.
func TestUnalignedFileSizes(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		run    func() *Result
		metric string
	}{
		{"deisa", func() *Result {
			cfg := smallDEISA(Env{})
			cfg.FileSize = 64*units.MiB + 512*units.KiB
			return RunDEISA(cfg)
		}, "min pair MB/s"},
		{"cache", func() *Result {
			cfg := smallCache(Env{})
			cfg.FileSize = 16*units.MiB + 4*units.KiB
			return RunCache(cfg)
		}, "cache hits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			defer func() {
				if err := recover(); err != nil {
					t.Fatalf("run failed: %v", err)
				}
			}()
			if r := tc.run(); r.Headline[tc.metric] <= 0 {
				t.Errorf("%s = %v, want > 0", tc.metric, r.Headline[tc.metric])
			}
		})
	}
}

// TestMetastormShardingFloor keeps the sharded token/metadata plane's
// reason to exist: on the default storm, four shards serve at least
// twice the central manager's metadata ops/sec.
func TestMetastormShardingFloor(t *testing.T) {
	t.Parallel()
	cfg := DefaultMetastormConfig()
	cfg.Shards = []int{0, 4}
	r := RunMetastorm(cfg)
	if got := r.Headline["speedup @4 shards"]; got < 2 {
		t.Errorf("4 shards serve %.2fx the central manager's ops/s (%.0f vs %.0f), below the 2x floor",
			got, r.Headline["ops/s @4 shards"], r.Headline["ops/s @0 shards"])
	}
}

func TestMetastormSmall(t *testing.T) {
	t.Parallel()
	cfg := smallMetastorm(conserved(t))
	cfg.Shards = []int{0, 4}
	r := RunMetastorm(cfg)
	if r.Headline["speedup @4 shards"] <= 1 {
		t.Errorf("4 shards speedup = %.2f over the central manager, want > 1", r.Headline["speedup @4 shards"])
	}
}

// TestResultPinned pins the rendered reports of the small SC'03, SC'04,
// DEISA and edge-cache runs to sha256 digests: a rewrite of how the
// experiments stream their files must not move a single byte.
func TestResultPinned(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		run    func() *Result
		digest string
	}{
		{"sc03", func() *Result { return RunSC03(smallSC03(Env{})) },
			"5c21ea8d2dbb26fc414673d76e5144fa9ce70603a9ac49322928e05b8e6bc56a"},
		{"sc04", func() *Result { return RunSC04(smallSC04(Env{})) },
			"e353b6765af48b048e3c940ee03737db5e1696384eafa4be2cb22eb3d3d25d93"},
		{"deisa", func() *Result { return RunDEISA(smallDEISA(Env{})) },
			"c2157592502ce99c7d90f2dcb4863b327d9828951d4e77aae02055b394b0b75d"},
		{"cache", func() *Result { return RunCache(smallCache(Env{})) },
			"9d98778839494d21a05414ebf49e5e2b779e9549cc8219c999edd960b8023e3c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out := tc.run().String()
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tc.digest {
				t.Errorf("digest %s, want %s:\n%s", got, tc.digest, out)
			}
		})
	}
}
