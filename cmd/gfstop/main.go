// Command gfstop is a live terminal dashboard over a running
// experiment — the "top" view of the simulated file system. Every
// timeline window it redraws: the busiest resources ranked by current
// rate with a sparkline of their recent history, the NSD load-imbalance
// line (max/mean and CoV across servers), and the client straggler
// spread (how far the slowest rank lags the median).
//
//	gfstop -exp failover              # watch the Fig. 5 dip live
//	gfstop -exp production -i 500ms   # faster windows
//	gfstop -exp sc04 -top 30 -delay 0 # every series, full speed
//
// The simulator runs orders of magnitude faster than real time, so
// -delay (wall-clock pause per frame, default 150ms) is what makes the
// view watchable; set it to 0 to let the run finish at full speed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gfs/internal/experiments"
	"gfs/internal/sim"
	"gfs/internal/timeline"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment name (gfssim -list shows them)")
		interval = flag.Duration("i", time.Second, "simulated time per window (frame)")
		top      = flag.Int("top", 20, "series rows to show, busiest first")
		delay    = flag.Duration("delay", 150*time.Millisecond, "wall-clock pause per frame (0 = full speed)")
		clear    = flag.Bool("clear", true, "redraw in place with ANSI clear (off: append frames)")
		spark    = flag.Int("spark", 40, "sparkline width in windows")
	)
	flag.Parse()

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: gfstop -exp <name> [-i <sim interval>] [-top N] [-delay <wall>]")
		for _, r := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", r.Name, r.Paper)
		}
		os.Exit(2)
	}
	r, ok := experiments.ByName(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "gfstop: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := checkFlags(*interval, *top, *spark); err != nil {
		fmt.Fprintln(os.Stderr, "gfstop:", err)
		os.Exit(2)
	}

	frames := 0
	render := func(c *timeline.Collector, snap timeline.Snapshot) {
		frames++
		if *clear {
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Printf("gfstop — %s  sim t=%.1fs  window=%v  frame=%d  series=%d\n",
			r.Name, snap.T, *interval, frames, len(snap.Names))
		writeBalance(snap)
		fmt.Println()
		writeTop(c, snap, *top, *spark)
		if *delay > 0 {
			time.Sleep(*delay)
		}
	}

	env := experiments.Env{Obs: experiments.NewObs(experiments.ObsConfig{
		Timeline:         true,
		TimelineInterval: sim.Time((*interval) / time.Nanosecond),
		// The dashboard only ever draws the last -spark windows; the ring
		// keeps memory flat no matter how long the run.
		TimelineRing:   *spark,
		TimelineOnTick: render,
	})}

	r.Run(env)
	fmt.Printf("\ngfstop: run complete after %d windows\n", frames)
}

// checkFlags rejects the window, row and sparkline settings the
// dashboard cannot draw with.
func checkFlags(interval time.Duration, top, spark int) error {
	switch {
	case interval <= 0:
		return errors.New("interval must be positive")
	case top < 0:
		return fmt.Errorf("-top %d is negative", top)
	case spark < 0:
		return fmt.Errorf("-spark %d is negative", spark)
	}
	return nil
}

// writeBalance prints the imbalance analytics for the two natural
// resource groups: NSD server serve rates and client op rates.
func writeBalance(snap timeline.Snapshot) {
	var nsd, cli []float64
	for _, n := range snap.Names {
		switch {
		case strings.HasPrefix(n, "nsd.") && strings.HasSuffix(n, ".read_MBps"):
			w := snap.Values[strings.TrimSuffix(n, ".read_MBps")+".write_MBps"]
			nsd = append(nsd, snap.Values[n]+w)
		case strings.HasPrefix(n, "client.") && strings.HasSuffix(n, ".ops_per_s"):
			cli = append(cli, snap.Values[n])
		}
	}
	if im := timeline.ComputeImbalance(nsd); im.N > 1 && im.Mean > 0 {
		fmt.Printf("nsd balance: %d servers  mean %.1f MB/s  max/mean %.2f  CoV %.3f\n",
			im.N, im.Mean, im.MaxOverMean, im.CoV)
	}
	if sk := timeline.StragglerSkew(cli); sk.N > 1 && sk.Max > 0 {
		fmt.Printf("client skew: %d ranks  median %.1f op/s  slowest %.1f  slowdown %.2fx\n",
			sk.N, sk.Median, sk.Min, sk.SlowdownVsMedian)
	}
}

// writeTop prints the busiest series this window with sparklines of
// their retained history.
func writeTop(c *timeline.Collector, snap timeline.Snapshot, top, width int) {
	names := append([]string(nil), snap.Names...)
	sort.Slice(names, func(i, j int) bool {
		vi, vj := snap.Values[names[i]], snap.Values[names[j]]
		if vi != vj {
			return vi > vj
		}
		return names[i] < names[j]
	})
	if len(names) > top {
		names = names[:top]
	}
	for _, n := range names {
		vals := c.Get(n).Values()
		if len(vals) > width {
			vals = vals[len(vals)-width:]
		}
		fmt.Printf("%-36s %12.2f %-6s %s\n", n, snap.Values[n], snap.Units[n],
			timeline.Spark(vals, 0))
	}
}
