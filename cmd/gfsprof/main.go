// Command gfsprof analyzes a trace dump offline: it reads the JSONL
// event stream written by `gfssim -jsonl` and prints the same
// critical-path latency attribution the live `-attr` flag produces, plus
// per-operation drill-downs.
//
//	gfssim -exp deisa -jsonl trace.jsonl
//	gfsprof trace.jsonl                # attribution table
//	gfsprof -top 10 trace.jsonl       # the ten slowest operations
//	gfsprof -op 1234 trace.jsonl      # one operation's span tree
//	gfsprof -faults trace.jsonl       # fault-injection and failover timeline
//	gfsprof -engine trace.jsonl       # engine sample timeline (queue depth,
//	                                  # event rate over virtual time)
//	gfsprof -timeline tl.jsonl        # summarize a `gfssim -timeline-jsonl` dump
//	gfsprof -timeline -series 'nsd.*MBps' tl.jsonl   # sparkline matching series
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"

	"gfs/internal/critpath"
	"gfs/internal/timeline"
	"gfs/internal/trace"
)

func main() {
	var (
		top      = flag.Int("top", 0, "also list the N slowest operations with their phase breakdowns")
		op       = flag.Int64("op", 0, "print the span tree of one operation ID and exit")
		lat      = flag.Bool("oplat", false, "print the mmpmon-style op_lat section instead of the table")
		faults   = flag.Bool("faults", false, "print the fault-injection and failover timeline instead of the table")
		engine   = flag.Bool("engine", false, "print the engine sample timeline (events fired, queue depth over virtual time)")
		tlMode   = flag.Bool("timeline", false, "input is a timeline JSONL dump (gfssim -timeline-jsonl); print per-series summaries")
		tlSeries = flag.String("series", "", "with -timeline: sparkline the series matching this glob (e.g. 'nsd.*MBps')")
		inPath   = flag.String("in", "", "input JSONL file (or pass it as the positional argument; - reads stdin)")
	)
	flag.Parse()
	if *inPath == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: gfsprof [-top n | -op id | -oplat | -faults | -timeline] <dump.jsonl>")
			os.Exit(2)
		}
		*inPath = flag.Arg(0)
	}
	if err := checkFlags(*top, *tlSeries); err != nil {
		fmt.Fprintln(os.Stderr, "gfsprof:", err)
		os.Exit(2)
	}

	in := os.Stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfsprof: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	if *tlMode {
		dump, err := timeline.ReadJSONL(in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfsprof: %v\n", err)
			os.Exit(1)
		}
		writeTimeline(os.Stdout, dump, *tlSeries)
		return
	}

	tr, err := trace.ReadJSONL(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfsprof: %v\n", err)
		os.Exit(1)
	}

	if *op != 0 {
		critpath.WriteTree(os.Stdout, tr, *op)
		return
	}

	if *faults {
		writeFaultTimeline(os.Stdout, tr)
		return
	}

	if *engine {
		writeEngineTimeline(os.Stdout, tr)
		return
	}

	rep := critpath.Analyze(tr)
	if *lat {
		rep.WriteOpLat(os.Stdout)
		return
	}
	fmt.Printf("%d events (%s)\n\n", tr.Len(), tr.Summary())
	rep.WriteTable(os.Stdout)

	if *top > 0 {
		fmt.Printf("\nslowest %d operations:\n", *top)
		for _, in := range rep.Slowest(tr, *top) {
			fmt.Printf("  op %-8d %-8s %-12s e2e %s", in.ID, in.Name, in.Track, fmtMs(in.E2E))
			for _, ph := range critpath.Phases {
				if d := in.Phases[ph]; d != 0 {
					fmt.Printf("  %s %s", ph, fmtMs(d))
				}
			}
			fmt.Println()
		}
		fmt.Println("\n(drill into one with: gfsprof -op <id>)")
	}
}

// checkFlags rejects a negative -top and a malformed -series glob before
// any input is read.
func checkFlags(top int, series string) error {
	if top < 0 {
		return fmt.Errorf("-top %d is negative", top)
	}
	if _, err := path.Match(series, ""); err != nil {
		return errors.New("-series: " + err.Error())
	}
	return nil
}

func fmtMs(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// writeTimeline summarizes a parsed timeline dump: per run, one row per
// series with window count, mean/max/last values — or, with a glob,
// sparklines of the matching series on a shared scale so relative load
// across resources is visible at a glance.
func writeTimeline(w io.Writer, dump *timeline.Dump, glob string) {
	if len(dump.Runs) == 0 {
		fmt.Fprintln(w, "no timeline runs in dump (record with: gfssim -exp ... -timeline-jsonl out.jsonl)")
		return
	}
	for _, run := range dump.Runs {
		label := run.Label
		if label == "" {
			label = "(unlabeled)"
		}
		fmt.Fprintf(w, "== timeline %s (interval %gs, %d series) ==\n", label, run.IntervalS, len(run.Names()))
		if glob != "" {
			writeTimelineSpark(w, run, glob)
			continue
		}
		fmt.Fprintf(w, "%-40s %8s %12s %12s %12s\n", "series", "windows", "mean", "max", "last")
		for _, se := range run.Series() {
			vals := se.Values()
			var sum, max float64
			for _, v := range vals {
				sum += v
				if v > max {
					max = v
				}
			}
			mean := 0.0
			if len(vals) > 0 {
				mean = sum / float64(len(vals))
			}
			last, _ := se.Last()
			fmt.Fprintf(w, "%-40s %8d %12.3f %12.3f %12.3f\n", se.Name, se.Len(), mean, max, last.V)
		}
	}
}

// writeTimelineSpark renders every series matching the glob as one
// sparkline row, all scaled to the group-wide maximum.
func writeTimelineSpark(w io.Writer, run *timeline.Run, glob string) {
	var names []string
	max := 0.0
	for _, n := range run.Names() {
		if ok, _ := path.Match(glob, n); !ok { // checkFlags vetted the glob
			continue
		}
		names = append(names, n)
		for _, v := range run.Get(n).Values() {
			if v > max {
				max = v
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(w, "no series match %q\n", glob)
		return
	}
	fmt.Fprintf(w, "scale: max %.3f\n", max)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %s\n", n, timeline.Spark(run.Get(n).Values(), max))
	}
}

// writeEngineTimeline prints the engine/sample instants an attached
// EngineProbe emitted (gfssim -engine-stats with a trace output): for
// each sample the virtual time, cumulative events fired, the event rate
// per *simulated* second since the previous sample, and the event-queue
// depth. The instants carry no wall-clock, so this view is identical
// across replays of the same run; it localizes event-storm hot spots in
// virtual time where the wall-clock report only gives run-wide totals.
func writeEngineTimeline(w io.Writer, tr *trace.Tracer) {
	fmt.Fprintf(w, "%12s %14s %16s %10s\n", "sim time", "events fired", "ev per sim-sec", "pending")
	n := 0
	var prevTS, prevFired int64
	for i := range tr.Events() {
		e := &tr.Events()[i]
		if e.Kind != trace.Instant || e.Cat != "engine" || e.Name != "sample" {
			continue
		}
		var fired, pending int64
		for _, a := range tr.EvArgs(e) {
			switch a.Key {
			case "fired":
				fired = a.IVal
			case "pending":
				pending = a.IVal
			}
		}
		rate := "-"
		if n > 0 && e.TS > prevTS {
			rate = fmt.Sprintf("%.0f", float64(fired-prevFired)/(float64(e.TS-prevTS)/1e9))
		}
		fmt.Fprintf(w, "%11.6fs %14d %16s %10d\n", float64(e.TS)/1e9, fired, rate, pending)
		prevTS, prevFired = e.TS, fired
		n++
	}
	if n == 0 {
		fmt.Fprintln(w, "no engine samples in trace (record with: gfssim -engine-stats -jsonl out.jsonl ...)")
	}
}

// writeFaultTimeline prints every injected fault and every failover
// transition in the trace in time order: what broke, when, on which
// track, and what the recovery machinery observed about it.
func writeFaultTimeline(w io.Writer, tr *trace.Tracer) {
	n := 0
	for i := range tr.Events() {
		e := &tr.Events()[i]
		if e.Kind != trace.Instant || (e.Cat != "fault" && e.Cat != "failover") {
			continue
		}
		fmt.Fprintf(w, "%12.6fs  %-8s %-16s %s", float64(e.TS)/1e9, e.Cat, e.Name, e.Track)
		for _, a := range tr.EvArgs(e) {
			if a.Str {
				fmt.Fprintf(w, "  %s=%s", a.Key, a.SVal)
			} else {
				fmt.Fprintf(w, "  %s=%d", a.Key, a.IVal)
			}
		}
		fmt.Fprintln(w)
		n++
	}
	if n == 0 {
		fmt.Fprintln(w, "no fault or failover events in trace")
	}
}
