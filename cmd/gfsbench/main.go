// Command gfsbench runs parameterized sweeps against the simulated Global
// File System and prints CSV, for studying the design space beyond the
// paper's fixed configurations:
//
//	gfsbench -sweep readahead -rtt 80ms        # E1's question: depth vs RTT
//	gfsbench -sweep nodes -nodes 1,4,16,64     # Fig. 11-style scaling
//	gfsbench -sweep blocksize                  # FS block size ablation
//	gfsbench -sweep stripe                     # NSD server count ablation
//	gfsbench -sweep sc03depth                  # sc03 single-client pipeline depth
//	gfsbench -sweep writegather                # stripe-aligned write gathering off/on
//	gfsbench -sweep simscale                   # engine throughput vs node count
//	gfsbench -sweep metastorm                  # metadata storm vs token-shard count
//	gfsbench -sweep readahead -json BENCH_2.json  # machine-readable results
//
// With -json the sweep additionally attributes every operation's critical
// path as it completes, and the output file carries the sweep rows plus
// per-op-type rates and critical-path attribution totals.
//
// The simscale sweep profiles the simulator itself, not the modeled
// hardware: it runs the production workload at 64/256/1024 nodes (up to
// 4096 with -nodes) with an engine probe attached and reports sim-events
// per wall second, wall milliseconds per simulated second, allocations
// per event, the event-queue high-water mark and the wall share of flow
// rate recomputation. `-json BENCH_10.json` is the artifact the CI
// events/sec floor checks against.
//
// The -engine-stats/-nodes/-size/-cpuprofile/-memprofile flags are
// registered through experiments.Options, the flag surface shared with
// gfssim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gfs/internal/core"
	"gfs/internal/critpath"
	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/timeline"
	"gfs/internal/units"
)

func main() {
	var (
		sweep    = flag.String("sweep", "", "readahead | nodes | blocksize | stripe | sc03depth | writegather | simscale | metastorm")
		rttFlag  = flag.Duration("rtt", 80*time.Millisecond, "WAN round-trip time")
		jsonPath = flag.String("json", "", "also write machine-readable results (rows + op rates + attribution) to this file")
	)
	var opts experiments.Options
	opts.RegisterEngine(flag.CommandLine)
	opts.RegisterWorkload(flag.CommandLine)
	opts.RegisterProfiles(flag.CommandLine)
	flag.Parse()

	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gfsbench:", err)
		os.Exit(2)
	}
	if err := checkRTT(*rttFlag); err != nil {
		fmt.Fprintln(os.Stderr, "gfsbench:", err)
		os.Exit(2)
	}

	// Per-sweep defaults: the simscale sweep measures engine throughput,
	// where 512 MiB/client at 1024 nodes would take minutes of wall clock
	// for no extra information — 64 MiB per client is plenty of events.
	if opts.Size == "" {
		opts.Size = "512MiB"
		if *sweep == "simscale" {
			opts.Size = "64MiB"
		}
	}
	size, err := opts.SizeBytes()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfsbench: -size:", err)
		os.Exit(2)
	}
	rtt := sim.Time(rttFlag.Nanoseconds())

	stopProf, err := opts.StartCPUProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfsbench: -cpuprofile:", err)
		os.Exit(1)
	}
	defer stopProf()

	var obs *experiments.Obs
	if *jsonPath != "" || *sweep == "simscale" || opts.EngineStats {
		// simscale needs engine probes but not a trace: retaining every
		// event of a 1024-node run is exactly what this PR's bounded
		// modes exist to avoid, and the sweep reports engine numbers only.
		// The other sweeps additionally collect a timeline, so the JSON
		// carries rate-vs-time series per row, not just the scalar rates.
		obs = experiments.NewObs(experiments.ObsConfig{
			Trace:            *jsonPath != "" && *sweep != "simscale",
			Discard:          true,
			Engine:           *sweep == "simscale" || opts.EngineStats,
			Timeline:         *jsonPath != "" && *sweep != "simscale",
			TimelineInterval: 250 * sim.Millisecond,
		})
	}
	env := experiments.Env{Obs: obs}

	var columns []string
	var rows [][]float64
	var series []benchSeries
	tlMark := 0
	// addRow also harvests the timeline collectors born while the row ran
	// (one per simulator) into aggregate rate-vs-time series tagged with
	// the row index.
	addRow := func(vs ...float64) {
		rows = append(rows, vs)
		if obs == nil {
			return
		}
		tls := obs.Timelines()
		for _, tl := range tls[tlMark:] {
			series = append(series, rowSeries(len(rows)-1, tl)...)
		}
		tlMark = len(tls)
	}

	switch *sweep {
	case "readahead":
		columns = []string{"readahead_blocks", "MBps"}
		for _, ra := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
			addRow(float64(ra), wanReadRate(env, ra, rtt, size))
		}
	case "nodes":
		columns = []string{"nodes", "read_MBps", "write_MBps"}
		for _, n := range nodeCounts(&opts, []int{1, 2, 4, 8, 16, 32, 48, 64}) {
			cfg := experiments.DefaultProductionConfig()
			cfg.NodeCounts = []int{n}
			cfg.SizePer = size
			cfg.Env = env
			r := experiments.RunProductionScaling(cfg)
			addRow(float64(n), r.Series[0].Points[0].Y, r.Series[1].Points[0].Y)
		}
	case "simscale":
		columns = []string{"nodes", "events", "sim_s", "wall_s",
			"ev_per_wall_s", "wall_ms_per_sim_s", "allocs_per_ev", "peak_pending",
			"recompute_wall_pct"}
		for _, n := range nodeCounts(&opts, []int{64, 256, 1024}) {
			start := len(obs.EngineWindows())
			cfg := experiments.DefaultProductionConfig()
			cfg.NodeCounts = []int{n}
			cfg.SizePer = size
			cfg.Env = env
			experiments.RunProductionScaling(cfg)
			es := sim.MergeEngineSnapshots(obs.EngineWindows()[start:])
			addRow(float64(n), float64(es.Events),
				float64(es.SimNs)/1e9, float64(es.WallNs)/1e9,
				es.EventsPerSec, es.WallPerSimSec*1e3,
				es.AllocsPerEvent, float64(es.PeakPending),
				recomputeWallPct(es))
		}
	case "blocksize":
		columns = []string{"blocksize_KiB", "MBps"}
		for _, bs := range []units.Bytes{256 * units.KiB, 512 * units.KiB, units.MiB, 2 * units.MiB, 4 * units.MiB} {
			addRow(float64(bs/units.KiB), streamRate(env, 8, bs, rtt, size))
		}
	case "stripe":
		columns = []string{"nsd_servers", "MBps"}
		for _, srv := range []int{1, 2, 4, 8, 16, 32} {
			addRow(float64(srv), streamRate(env, srv, units.MiB, 0, size))
		}
	case "sc03depth":
		// Single viz client on the sc03 show-floor topology, sweeping the
		// readahead depth: how much WAN pipeline does one reader need? The
		// client NIC is raised to 10 GbE so the answer is about pipelining,
		// not about the SC'03-era GbE NIC.
		columns = []string{"ra_depth", "client_MBps", "peak_Gbps"}
		for _, d := range []int{1, 2, 4, 8, 16, 32} {
			cfg := experiments.DefaultSC03Config()
			cfg.VizNodes = 1
			cfg.Files = 2
			cfg.FileSize = 256 * units.MiB
			cfg.VizEth = 10 * units.Gbps
			cfg.ReadAhead = d
			cfg.Env = env
			r := experiments.RunSC03(cfg)
			addRow(float64(d), r.Headline["client MB/s"], r.Headline["peak Gb/s"])
		}
	case "metastorm":
		// Create/write-small/stat/remove storm against the token/metadata
		// plane, one row per shard count. Row 0 is the single-manager
		// baseline; the CI floor asserts the sharded rows' ops/sec ratio.
		columns = []string{"token_shards", "ops_per_s", "meta_wait_pct"}
		for _, n := range []int{0, 4, 8} {
			cfg := experiments.DefaultMetastormConfig()
			cfg.Shards = []int{n}
			cfg.Env = env
			r := experiments.RunMetastorm(cfg)
			addRow(float64(n),
				r.Headline[fmt.Sprintf("ops/s @%d shards", n)],
				100*r.Headline[fmt.Sprintf("meta wait share @%d shards", n)])
		}
	case "writegather":
		// One sequential writer against DS4100-backed RAID, with the
		// stripe-aligned gathering fast path off then on. The RAID-set
		// counters come straight from the arrays: read-modify-write
		// updates should collapse toward zero once write-behind flushes
		// whole stripes.
		columns = []string{"gather", "write_MBps", "read_MBps", "rmw_writes", "full_stripe_writes", "gathered_flushes"}
		for _, g := range []bool{false, true} {
			addRow(writeGatherRow(env, g, size)...)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Println(strings.Join(columns, ","))
	for _, r := range rows {
		parts := make([]string, len(r))
		parts[0] = fmt.Sprintf("%d", int64(r[0]))
		for i := 1; i < len(r); i++ {
			parts[i] = fmt.Sprintf("%.1f", r[i])
		}
		fmt.Println(strings.Join(parts, ","))
	}

	if obs != nil && opts.EngineStats {
		fmt.Println("-- engine telemetry --")
		es := obs.EngineSnapshot()
		es.WriteReport(os.Stdout)
		obs.WriteSolverReport(os.Stdout)
		fmt.Println()
	}

	if obs != nil && *jsonPath != "" {
		var rep *critpath.Report
		if obs.Agg != nil {
			rep = obs.Agg.Report()
		}
		if err := writeJSON(*jsonPath, *sweep, columns, rows, series, rep); err != nil {
			fmt.Fprintln(os.Stderr, "gfsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gfsbench: wrote %s\n", *jsonPath)
	}

	if err := opts.WriteMemProfile(); err != nil {
		fmt.Fprintln(os.Stderr, "gfsbench: -memprofile:", err)
		os.Exit(1)
	}
}

// recomputeWallPct estimates what share of the run's wall clock went to
// flow-rate recomputation, from the probe's per-kind attribution. This
// is the share the CI simscale floor bounds.
func recomputeWallPct(es sim.EngineSnapshot) float64 {
	var total, rec int64
	for _, k := range es.Kinds {
		total += k.EstWallNs
		if k.Name == "net.recompute" {
			rec = k.EstWallNs
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(rec) / float64(total)
}

// nodeCounts parses the shared -nodes flag, falling back to the sweep's
// default when it was not given.
func nodeCounts(opts *experiments.Options, def []int) []int {
	out, err := opts.NodeCounts(def)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfsbench: -nodes:", err)
		os.Exit(2)
	}
	return out
}

// benchOp is one op type's aggregate in the JSON output.
type benchOp struct {
	Count    int                `json:"count"`
	PerSec   float64            `json:"per_simsec"`
	MeanMs   float64            `json:"mean_ms"`
	P50Ms    float64            `json:"p50_ms"`
	P95Ms    float64            `json:"p95_ms"`
	P99Ms    float64            `json:"p99_ms"`
	PhasesMs map[string]float64 `json:"phases_ms"`
}

// benchSeries is one rate-vs-time series recorded while one sweep row
// ran: the aggregate NSD serve rate across every server, windowed at
// the timeline interval. Additive: consumers of the scalar rows are
// unaffected, and the field is omitted when no timeline was collected.
type benchSeries struct {
	Row       int       `json:"row"`  // index into Rows
	Sim       string    `json:"sim"`  // collector label ("sim3")
	Name      string    `json:"name"` // e.g. "nsd_read_MBps"
	Unit      string    `json:"unit"`
	IntervalS float64   `json:"interval_s"`
	T         []float64 `json:"t"`
	V         []float64 `json:"v"`
}

type benchOut struct {
	Bench   int                `json:"bench"`
	Sweep   string             `json:"sweep"`
	Columns []string           `json:"columns"`
	Rows    [][]float64        `json:"rows"`
	Series  []benchSeries      `json:"series,omitempty"`
	Ops     map[string]benchOp `json:"ops"`
}

// rowSeries folds one collector's per-server NSD rates into aggregate
// read and write series for the row. Values are rounded to 0.1 so the
// JSON stays short and byte-stable.
func rowSeries(row int, tl *timeline.Collector) []benchSeries {
	var out []benchSeries
	for _, dir := range []string{"read", "write"} {
		var group []*timeline.Series
		for _, se := range tl.Prefix("nsd.") {
			if strings.HasSuffix(se.Name, "."+dir+"_MBps") {
				group = append(group, se)
			}
		}
		if len(group) == 0 {
			continue
		}
		sum := timeline.Sum(group, "nsd_"+dir+"_MBps", "MB/s")
		bs := benchSeries{
			Row: row, Sim: tl.Label, Name: sum.Name, Unit: sum.Unit,
			IntervalS: tl.Interval().Seconds(),
		}
		for _, p := range sum.Points() {
			bs.T = append(bs.T, p.T)
			bs.V = append(bs.V, float64(int64(p.V*10+0.5))/10)
		}
		out = append(out, bs)
	}
	return out
}

// writeJSON renders the sweep plus attribution as deterministic JSON
// (struct field order is fixed; encoding/json sorts map keys). The bench
// number tags the artifact series: 2 for the original sweeps, 4 for the
// sc03 pipeline-depth sweep added with client prefetch/write-behind, 5
// for the write-gathering ablation, 9 for the metadata-storm token-shard
// sweep, 10 for the engine-throughput simscale sweep (which carries no
// op attribution — it measures the simulator, not the modeled
// filesystem, and rep is nil; 8 was the same sweep before it
// reported recompute_wall_pct).
func writeJSON(path, sweep string, columns []string, rows [][]float64, series []benchSeries, rep *critpath.Report) error {
	bench := 2
	switch sweep {
	case "sc03depth":
		bench = 4
	case "writegather":
		bench = 5
	case "simscale":
		bench = 10
	case "metastorm":
		bench = 9
	}
	out := benchOut{
		Bench: bench, Sweep: sweep, Columns: columns, Rows: rows,
		Series: series, Ops: map[string]benchOp{},
	}
	if rep == nil {
		rep = &critpath.Report{}
	}
	// Observed op rate: count over the simulated span the op type was
	// active. Sweeps run many sims on one tracer, so this is a rate over
	// total observed virtual time, not one run's throughput.
	for _, s := range rep.Ops {
		perSec := 0.0
		if span := s.End - s.Start; span > 0 {
			perSec = float64(s.Count) / (float64(span) / 1e9)
		}
		mean := int64(0)
		if s.Count > 0 {
			mean = s.TotalNs / int64(s.Count)
		}
		op := benchOp{
			Count:  s.Count,
			PerSec: ms(int64(perSec * 1e6)), // round to 1e-3 ops/s
			MeanMs: ms(mean),
			P50Ms:  ms(s.Quantile(0.50)),
			P95Ms:  ms(s.Quantile(0.95)),
			P99Ms:  ms(s.Quantile(0.99)),

			PhasesMs: map[string]float64{},
		}
		for _, ph := range critpath.Phases {
			if d := s.Phases[ph]; d != 0 {
				op.PhasesMs[ph] = ms(d)
			}
		}
		out.Ops[s.Name] = op
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(out)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ms converts nanoseconds to milliseconds rounded to three decimals, so
// the JSON carries short, stable numbers.
func ms(ns int64) float64 { return float64(ns/1000) / 1000 }

// writeGatherRow runs one sequential writer (then a cold reader) against
// a small DS4100-backed filesystem and reports rates plus the RAID and
// client gathering counters. BlockSize 1 MiB against a 2 MiB stripe
// width means every ungathered writeback is a sub-stripe update.
func writeGatherRow(env experiments.Env, gather bool, size units.Bytes) []float64 {
	s := env.NewSim()
	nw := netsim.New(s)
	site := env.NewSite(s, nw, "wg")
	// DS4100 enclosures trimmed to four LUNs behind 4 Gb/s loops: the
	// SATA spindles, not the fabric, set the ceiling, so the ablation
	// measures the RAID write path rather than FC serialization.
	acfg := san.DS4100Config()
	acfg.Sets = 4
	acfg.CtrlRate = san.FC4
	site.BuildFS(experiments.FSOptions{
		Name: "fs", BlockSize: units.MiB,
		Servers: 4, ServerEth: 10 * units.Gbps,
		Arrays: 2, ArrayCfg: acfg,
		ServerHBA: san.FC4, HBAsPer: 1,
	})
	ccfg := core.DefaultClientConfig()
	ccfg.ReadAhead = 16
	ccfg.WriteBehind = 16
	if gather {
		ccfg.WideTokens = true
		site.FS.EnableGather()
	}
	writer := site.AddClients(1, 10*units.Gbps, ccfg)[0]
	reader := site.AddClients(1, 10*units.Gbps, ccfg)[0]

	var wr, rd float64
	var st core.MountStats
	done := false
	s.Go("writegather", func(p *sim.Proc) {
		defer func() { done = true }()
		m, err := writer.MountLocal(p, site.FS)
		if err != nil {
			panic(err)
		}
		f, err := m.Create(p, "/seq.dat", core.DefaultPerm)
		if err != nil {
			panic(err)
		}
		t0 := p.Now()
		for off := units.Bytes(0); off < size; off += units.MiB {
			if err := f.WriteAt(p, off, units.MiB); err != nil {
				panic(err)
			}
		}
		if err := f.Sync(p); err != nil {
			panic(err)
		}
		wr = float64(size) / (p.Now() - t0).Seconds() / 1e6
		st = m.Stats()
		if err := f.Close(p); err != nil {
			panic(err)
		}
		// Cold read from a second client: demand fetches plus batched
		// prefetch go to the NSD servers, not the writer's pagepool.
		rm, err := reader.MountLocal(p, site.FS)
		if err != nil {
			panic(err)
		}
		g, err := rm.Open(p, "/seq.dat")
		if err != nil {
			panic(err)
		}
		t1 := p.Now()
		for off := units.Bytes(0); off < size; off += units.MiB {
			if err := g.ReadAt(p, off, units.MiB); err != nil {
				panic(err)
			}
		}
		rd = float64(size) / (p.Now() - t1).Seconds() / 1e6
	})
	s.Run()
	if !done {
		panic("gfsbench: writegather deadlock")
	}
	var rmw, fsw uint64
	for _, arr := range site.Fabric.Arrays {
		for _, set := range arr.Sets {
			rmw += set.RMWWrites()
			fsw += set.FullStripeWrites()
		}
	}
	on := 0.0
	if gather {
		on = 1
	}
	return []float64{on, wr, rd, float64(rmw), float64(fsw), float64(st.GatheredFlushes)}
}

// checkRTT rejects a negative -rtt: half of it becomes the WAN link's
// one-way delay.
func checkRTT(rtt time.Duration) error {
	if rtt < 0 {
		return fmt.Errorf("-rtt %s is negative", rtt)
	}
	return nil
}

// wanReadRate measures one client streaming across an RTT-deep WAN with
// the given read-ahead depth.
func wanReadRate(env experiments.Env, readAhead int, rtt sim.Time, size units.Bytes) float64 {
	return streamRateTuned(env, func(cfg *core.ClientConfig) { cfg.ReadAhead = readAhead }, 8, units.MiB, rtt, size)
}

// streamRate measures one client streaming from a FS with the given
// server count and block size.
func streamRate(env experiments.Env, servers int, blockSize units.Bytes, rtt sim.Time, size units.Bytes) float64 {
	return streamRateTuned(env, nil, servers, blockSize, rtt, size)
}

func streamRateTuned(env experiments.Env, tune func(*core.ClientConfig), servers int, blockSize units.Bytes, rtt sim.Time, size units.Bytes) float64 {
	s := env.NewSim()
	nw := netsim.New(s)
	site := env.NewSite(s, nw, "origin")
	site.BuildFS(experiments.FSOptions{
		Name: "fs", BlockSize: blockSize,
		Servers: servers, ServerEth: 10 * units.Gbps,
		StoreRate: units.GBps, StoreCap: 10 * units.TB, StoreStreams: 8,
	})
	remoteSW := nw.NewNode("remote-sw")
	nw.DuplexLink("wan", site.Switch, remoteSW, 10*units.Gbps, rtt/2)
	node := nw.NewNode("reader")
	nw.DuplexLink("reader", node, remoteSW, 10*units.Gbps, 50*sim.Microsecond)
	ccfg := core.DefaultClientConfig()
	if tune != nil {
		tune(&ccfg)
	}
	cl := core.NewClient(site.Cluster, "reader", node, ccfg, core.Identity{DN: "/CN=bench"})
	seeder := site.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]

	var out float64
	done := false
	s.Go("bench", func(p *sim.Proc) {
		defer func() { done = true }()
		sm, err := seeder.MountLocal(p, site.FS)
		if err != nil {
			panic(err)
		}
		f, err := sm.Create(p, "/data", core.DefaultPerm)
		if err != nil {
			panic(err)
		}
		for off := units.Bytes(0); off < size; off += 8 * units.MiB {
			ln := 8 * units.MiB
			if off+ln > size {
				ln = size - off
			}
			if err := f.WriteAt(p, off, ln); err != nil {
				panic(err)
			}
		}
		if err := f.Close(p); err != nil {
			panic(err)
		}
		m, err := cl.MountLocal(p, site.FS)
		if err != nil {
			panic(err)
		}
		g, err := m.Open(p, "/data")
		if err != nil {
			panic(err)
		}
		t0 := p.Now()
		for off := units.Bytes(0); off < size; off += blockSize {
			ln := blockSize
			if off+ln > size {
				ln = size - off
			}
			if err := g.ReadAt(p, off, ln); err != nil {
				panic(err)
			}
		}
		out = float64(size) / (p.Now() - t0).Seconds() / 1e6
	})
	s.Run()
	if !done {
		panic("gfsbench: deadlock")
	}
	return out
}
