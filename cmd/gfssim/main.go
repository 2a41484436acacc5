// Command gfssim regenerates the paper's figures and headline numbers.
//
//	gfssim -list                      # show available experiments
//	gfssim -exp production            # run one (Fig. 11)
//	gfssim -exp all                   # run everything
//	gfssim -exp sc02 -csv             # emit the series as CSV instead of a chart
//	gfssim -exp sc04 -trace out.json  # record a Chrome trace (load in Perfetto)
//	gfssim -exp sc04 -stats           # mmpmon-style snapshot + metrics registry
//	gfssim -exp anl -stats -attr -interval 10s -timeline-interval 10s -timeline-ring 128
//	                                  # live mmpmon snapshots with rate and op_lat lines
//	gfssim -exp production -attr      # critical-path latency attribution
//	gfssim -exp sc02 -depth 1 -attr   # single outstanding request: WAN-bound
//	gfssim -exp failover -outage 12s  # crash drill with a longer NSD outage
//	gfssim -exp sc03 -ra-depth 8      # WAN read pipeline depth 8 per client
//	gfssim -exp production -gather -wide-tokens  # write-gathering fast path on
//	gfssim -exp production -engine-stats         # profile the simulator itself
//	gfssim -exp production -nodes 1024 -size 64MiB -jsonl-stream t.jsonl -trace-sample 64
//	                                  # bounded-memory sampled trace at scale
//	gfssim -exp failover -timeline-jsonl tl.jsonl   # per-interval rate series for every resource
//	gfssim -exp production -http :8080 -http-hold 30s
//	                                  # live Prometheus /metrics + /timeline JSON while running
//
// The flags are declared once, in experiments.Options.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"gfs/internal/experiments"
	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/timeline"
	"gfs/internal/units"
)

func main() {
	var (
		exp  = flag.String("exp", "", "experiment name (see -list), or 'all'")
		list = flag.Bool("list", false, "list experiments")
		csv  = flag.Bool("csv", false, "print series as CSV instead of ASCII charts")
	)
	var opts experiments.Options
	opts.Register(flag.CommandLine)
	flag.Parse()

	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gfssim:", err)
		os.Exit(2)
	}

	if *list || *exp == "" {
		fmt.Println("experiments (gfssim -exp <name>):")
		for _, r := range experiments.All() {
			fmt.Printf("  %-11s %s\n", r.Name, r.Paper)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.All()
	} else {
		r, ok := experiments.ByName(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "gfssim: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	if opts.Depth > 0 || opts.Block > 0 || opts.FileSize > 0 {
		if *exp != "sc02" {
			fmt.Fprintln(os.Stderr, "gfssim: -depth/-block/-filesize only apply to -exp sc02")
			os.Exit(2)
		}
		cfg := experiments.DefaultSC02Config()
		if opts.Depth > 0 {
			cfg.Depth = opts.Depth
		}
		if opts.Block > 0 {
			cfg.BlockSize = units.Bytes(opts.Block)
		}
		if opts.FileSize > 0 {
			cfg.FileSize = units.Bytes(opts.FileSize)
		}
		runners[0].Run = func(env experiments.Env) *experiments.Result { cfg.Env = env; return experiments.RunSC02(cfg) }
	}

	if opts.RADepth > 0 || opts.WBDirty > 0 {
		if *exp != "sc03" && *exp != "failover" {
			fmt.Fprintln(os.Stderr, "gfssim: -ra-depth/-wb-max-dirty only apply to -exp sc03 or -exp failover")
			os.Exit(2)
		}
		if *exp == "sc03" {
			cfg := experiments.DefaultSC03Config()
			cfg.ReadAhead = opts.RADepth
			cfg.WriteBehind = opts.WBDirty
			runners[0].Run = func(env experiments.Env) *experiments.Result { cfg.Env = env; return experiments.RunSC03(cfg) }
		}
	}

	if opts.CrashAt > 0 || opts.Outage > 0 || opts.Duration > 0 ||
		(*exp == "failover" && (opts.RADepth > 0 || opts.WBDirty > 0)) {
		if *exp != "failover" {
			fmt.Fprintln(os.Stderr, "gfssim: -crash/-outage/-duration only apply to -exp failover")
			os.Exit(2)
		}
		cfg := experiments.DefaultFailoverConfig()
		if opts.CrashAt > 0 {
			cfg.CrashAt = sim.Time(opts.CrashAt / time.Nanosecond)
		}
		if opts.Outage > 0 {
			cfg.Outage = sim.Time(opts.Outage / time.Nanosecond)
		}
		if opts.Duration > 0 {
			cfg.Duration = sim.Time(opts.Duration / time.Nanosecond)
		}
		cfg.ReadAhead = opts.RADepth
		cfg.WriteBehind = opts.WBDirty
		runners[0].Run = func(env experiments.Env) *experiments.Result { cfg.Env = env; return experiments.RunFailover(cfg) }
	}

	if opts.Gather || opts.WideTok || opts.Nodes != "" || opts.Size != "" {
		if *exp != "production" {
			fmt.Fprintln(os.Stderr, "gfssim: -gather/-wide-tokens/-nodes/-size only apply to -exp production")
			os.Exit(2)
		}
		cfg := experiments.DefaultProductionConfig()
		cfg.Gather = opts.Gather
		cfg.WideTokens = opts.WideTok
		counts, err := opts.NodeCounts(cfg.NodeCounts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gfssim: -nodes:", err)
			os.Exit(2)
		}
		cfg.NodeCounts = counts
		sz, err := opts.SizeBytes()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gfssim: -size:", err)
			os.Exit(2)
		}
		if sz > 0 {
			cfg.SizePer = sz
		}
		runners[0].Run = func(env experiments.Env) *experiments.Result {
			cfg.Env = env
			return experiments.RunProductionScaling(cfg)
		}
	}

	if opts.TokenShards >= 0 {
		if *exp != "metastorm" {
			fmt.Fprintln(os.Stderr, "gfssim: -token-shards only applies to -exp metastorm")
			os.Exit(2)
		}
		cfg := experiments.DefaultMetastormConfig()
		cfg.Shards = []int{opts.TokenShards}
		runners[0].Run = func(env experiments.Env) *experiments.Result { cfg.Env = env; return experiments.RunMetastorm(cfg) }
	}

	stopProf, err := opts.StartCPUProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfssim: -cpuprofile:", err)
		os.Exit(1)
	}
	defer stopProf()

	var obs *experiments.Obs
	var streamFile, tlFile *os.File
	var exporter *timeline.Exporter
	if opts.NeedObs() {
		cfg := opts.ObsConfig(os.Stdout)
		if opts.JSONLStream != "" {
			f, err := os.Create(opts.JSONLStream)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gfssim: -jsonl-stream:", err)
				os.Exit(1)
			}
			streamFile = f
			cfg.Stream = f
		}
		if cfg.Timeline {
			if opts.TimelineJSONL != "" {
				f, err := os.Create(opts.TimelineJSONL)
				if err != nil {
					fmt.Fprintln(os.Stderr, "gfssim: -timeline-jsonl:", err)
					os.Exit(1)
				}
				tlFile = f
				cfg.TimelineStream = f
			}
			if opts.HTTPAddr != "" {
				exporter = timeline.NewExporter()
				cfg.TimelineExport = exporter
				go func() {
					if err := http.ListenAndServe(opts.HTTPAddr, exporter.Handler()); err != nil {
						fmt.Fprintln(os.Stderr, "gfssim: -http:", err)
					}
				}()
				fmt.Fprintf(os.Stderr, "timeline: serving /metrics and /timeline on %s\n", opts.HTTPAddr)
			}
		}
		obs = experiments.NewObs(cfg)
	}
	env := experiments.Env{Obs: obs}

	for _, r := range runners {
		if obs != nil && obs.Agg != nil {
			obs.Agg.Reset() // attribution covers the experiment about to run
		}
		fmt.Printf("running %s (%s)...\n", r.Name, r.Paper)
		res := r.Run(env)
		if *csv {
			fmt.Printf("== %s: %s ==\n", res.ID, res.Title)
			fmt.Print(res.HeadlineTable())
			for _, n := range res.Notes {
				fmt.Printf("note: %s\n", n)
			}
			if len(res.Series) > 0 {
				fmt.Print(metrics.MergeCSV(res.Series[0].XLabel, res.Series...))
			}
		} else {
			fmt.Print(res.String())
		}
		if opts.Attr {
			fmt.Printf("-- %s: critical-path attribution --\n", r.Name)
			obs.Agg.Report().WriteTable(os.Stdout)
		}
		fmt.Println()
	}

	if obs != nil {
		if opts.Stats {
			obs.Snapshot(os.Stdout)
			obs.WriteCounters(os.Stdout)
			fmt.Print(obs.Registry.Render())
		}
		if opts.EngineStats {
			fmt.Println("-- engine telemetry --")
			es := obs.EngineSnapshot()
			es.WriteReport(os.Stdout)
			obs.WriteSolverReport(os.Stdout)
			fmt.Println()
		}
		switch {
		case opts.JSONLStream != "":
			fmt.Printf("trace: %d events emitted, %d retained\n",
				obs.Tracer.TotalEmitted(), obs.Tracer.Len())
		case opts.TraceOut != "" || opts.JSONLOut != "" || opts.TraceRing > 0:
			fmt.Printf("trace: %d events (%s)\n", obs.Tracer.Len(), obs.Tracer.Summary())
		}
		if opts.TraceOut != "" {
			writeFileWith(opts.TraceOut, obs.Tracer.WriteChrome)
			fmt.Fprintf(os.Stderr, "trace: wrote Chrome trace to %s\n", opts.TraceOut)
		}
		if opts.JSONLOut != "" {
			writeFileWith(opts.JSONLOut, obs.Tracer.WriteJSONL)
			fmt.Fprintf(os.Stderr, "trace: wrote JSONL events to %s\n", opts.JSONLOut)
		}
		if streamFile != nil {
			err := obs.Tracer.FlushStream()
			if cerr := streamFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "gfssim: streaming %s: %v\n", opts.JSONLStream, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace: streamed JSONL events to %s\n", opts.JSONLStream)
		}
		if tls := obs.Timelines(); len(tls) > 0 {
			windows, series := 0, 0
			for _, tl := range tls {
				windows += tl.Ticks()
				series += len(tl.Names())
			}
			fmt.Printf("timeline: %d windows, %d series across %d sims (interval %s)\n",
				windows, series, len(tls), opts.TimelineInterval)
		}
		if err := obs.FlushTimeline(); err != nil {
			fmt.Fprintf(os.Stderr, "gfssim: -timeline-jsonl: %v\n", err)
			os.Exit(1)
		}
		if tlFile != nil {
			if err := tlFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "gfssim: -timeline-jsonl: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "timeline: streamed windows to %s\n", opts.TimelineJSONL)
		}
	}

	if exporter != nil && opts.HTTPHold > 0 {
		fmt.Fprintf(os.Stderr, "timeline: holding %s on %s (final window stays served)\n", opts.HTTPHold, opts.HTTPAddr)
		time.Sleep(opts.HTTPHold)
	}

	if err := opts.WriteMemProfile(); err != nil {
		fmt.Fprintln(os.Stderr, "gfssim: -memprofile:", err)
		os.Exit(1)
	}
}

// writeFileWith streams an exporter into a freshly created file, exiting
// on any error — a truncated trace is worse than no trace.
func writeFileWith(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfssim: writing %s: %v\n", path, err)
		os.Exit(1)
	}
}
