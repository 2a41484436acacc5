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
// The flags are declared once, in experiments.Options. Each experiment's
// registry entry names the tuning flags it reads (-depth, -crash,
// -nodes, ...); any other tuning flag is a usage error, exit status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"gfs/internal/experiments"
	"gfs/internal/metrics"
	"gfs/internal/timeline"
)

// command is one parsed gfssim command line.
type command struct {
	exp       string
	list, csv bool
	opts      experiments.Options
	runners   []experiments.Runner // the experiments -exp names, tuned by opts
}

// parse reads a gfssim command line into fs's flags and resolves the
// experiments to run. Every error is a usage error and comes before
// anything runs: a bad flag value, an unknown experiment, or a tuning
// flag that a chosen experiment does not declare.
func parse(fs *flag.FlagSet, args []string) (*command, error) {
	c := &command{}
	fs.StringVar(&c.exp, "exp", "", "experiment name (see -list), or 'all'")
	fs.BoolVar(&c.list, "list", false, "list experiments")
	fs.BoolVar(&c.csv, "csv", false, "print series as CSV instead of ASCII charts")
	c.opts.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := c.opts.Validate(); err != nil {
		return nil, err
	}
	if c.list || c.exp == "" {
		return c, nil
	}
	readers := map[string][]string{} // tuning flag -> the experiments that declare it
	for _, r := range experiments.Tuned(&c.opts) {
		for _, f := range r.Tuning {
			readers[f] = append(readers[f], r.Name)
		}
		if c.exp == "all" || r.Name == c.exp {
			c.runners = append(c.runners, r)
		}
	}
	if len(c.runners) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (try -list)", c.exp)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, r := range c.runners {
			if err == nil && readers[f.Name] != nil && !slices.Contains(r.Tuning, f.Name) {
				err = fmt.Errorf("-%s only applies to -exp %s", f.Name, strings.Join(readers[f.Name], " or -exp "))
			}
		}
	})
	return c, err
}

func main() {
	c, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfssim:", err)
		os.Exit(2)
	}
	opts := &c.opts

	if c.list || c.exp == "" {
		fmt.Println("experiments (gfssim -exp <name>):")
		for _, r := range experiments.All() {
			fmt.Printf("  %-11s %s\n", r.Name, r.Paper)
		}
		if c.exp == "" && !c.list {
			os.Exit(2)
		}
		return
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

	for _, r := range c.runners {
		if obs != nil && obs.Agg != nil {
			obs.Agg.Reset() // attribution covers the experiment about to run
		}
		fmt.Printf("running %s (%s)...\n", r.Name, r.Paper)
		res := r.Run(env)
		if c.csv {
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
