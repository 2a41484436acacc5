package main

import (
	"fmt"
	"os"

	"gfs/internal/experiments"
	"gfs/internal/units"
)

// checkRow is one workload's -check outcome.
type checkRow struct {
	w      workload
	seed0  *iter
	traced *iter
	seed1  *iter
}

// runCheck is the one-command check: every workload at seed 0, traced at
// seed 0 and at the held-out seed 1; every end-to-end metric printed by
// name with its unit; the experiments' headlines reproduced exactly;
// determinism between the untraced and traced runs; and the layer
// mapping. It returns the process exit code.
func runCheck() int {
	var rows []checkRow
	var fails []string
	fail := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	for _, w := range workloads {
		row := checkRow{w: w,
			seed0:  runIter(w, 0, plain),
			traced: runIter(w, 0, traced),
			seed1:  runIter(w, 1, plain),
		}
		rows = append(rows, row)
		for _, it := range []*iter{row.seed0, row.traced, row.seed1} {
			for _, p := range append(it.errs, it.wrongs...) {
				fail("%s seed %d: %s", w.name, it.seed, p)
			}
			if it.failed() > 0 {
				fail("%s seed %d: op_error_frac %g > 0", w.name, it.seed, ratio(float64(it.failed()), float64(it.attempted())))
			}
		}
		if d := diffMetrics(row.seed0.det, row.traced.det); d != "" {
			fail("%s: traced and untraced runs differ: %s", w.name, d)
		}
		for _, r := range crossCheck(row.seed0, w.name) {
			fail("%s: %s", w.name, r)
		}
		printCheckRow(row)
	}
	// The layer mapping: the rate solver works on the bulk-data
	// workloads, and the storm never reaches RAID or the drives.
	layer := map[string]metrics{}
	for _, row := range rows {
		layer[row.w.name] = append(append(metrics{}, row.traced.layers...), row.traced.engine...)
	}
	storm, _ := layer["metastorm"].get("netsim.recompute.wall_pct")
	for _, n := range []string{"wan_read", "mpiio_rw"} {
		if v, _ := layer[n].get("netsim.recompute.wall_pct"); v <= storm {
			fail("layer mapping: netsim.recompute.wall_pct %.1f%% on %s is not above metastorm's %.1f%%", v, n, storm)
		}
	}
	for _, n := range bypassedOnMetastorm {
		if v, _ := layer["metastorm"].get(n); v != 0 {
			fail("layer mapping: %s = %g on metastorm, want 0", n, v)
		}
	}
	for _, f := range fails {
		fmt.Printf("FAIL %s\n", f)
	}
	if len(fails) > 0 {
		return 1
	}
	fmt.Println("PASS cross-check, determinism, op errors and layer mapping")
	return 0
}

// crossCheck reruns the experiment a workload reproduces at matched
// sizes and compares its headline with the driver's seed-0 phases,
// computed with the experiment's own arithmetic so they match exactly.
func crossCheck(it *iter, name string) []string {
	var out []string
	want := func(what string, got, exp float64) {
		if got != exp {
			out = append(out, fmt.Sprintf("cross-check %s: driver %v, experiment %v", what, got, exp))
		}
	}
	ph := map[string]*phase{}
	for _, p := range it.phases {
		ph[p.name] = p
	}
	if len(ph) == 0 {
		return []string{"cross-check: no measured phases"}
	}
	switch name {
	case "wan_read":
		r := ph["read"]
		exp := experiments.RunANL(anlConfig()).Headline["aggregate GB/s"]
		want("RunANL aggregate GB/s", float64(r.bytes[opRead])/r.dur.Seconds()/1e9, exp)
	case "mpiio_rw":
		res := experiments.RunProductionScaling(productionConfig())
		rate := func(p *phase, op opKind) float64 {
			return float64(units.BytesPerSec(float64(p.bytes[op])/p.dur.Seconds())) / 1e6
		}
		want("RunProductionScaling write MB/s", rate(ph["write"], opWrite), res.Headline["max write MB/s"])
		want("RunProductionScaling read MB/s", rate(ph["read"], opRead), res.Headline["max read MB/s"])
	case "metastorm":
		cfg := metastormConfig()
		exp := experiments.RunMetastorm(cfg).Headline[fmt.Sprintf("ops/s @%d shards", stormShards)]
		s := ph["storm"]
		if s.calls[opMeta] != cfg.Clients*cfg.Cycles*3 {
			out = append(out, fmt.Sprintf("cross-check: %d metadata calls, want %d", s.calls[opMeta], cfg.Clients*cfg.Cycles*3))
		}
		want("RunMetastorm ops/s", float64(cfg.Clients)*float64(cfg.Cycles)*3/s.dur.Seconds(), exp)
	}
	return out
}

func printCheckRow(row checkRow) {
	for _, it := range []*iter{row.seed0, row.seed1} {
		fmt.Printf("== %s seed %d\n", row.w.name, it.seed)
		mod := it.mod
		line := func(name, unit string, v float64) {
			fmt.Printf("  %-28s %16.6g %s\n", name, v, unit)
		}
		line("wall_s", "s", it.wall.measured.Seconds())
		line("setup_s", "s", it.wall.setup.Seconds())
		line("peak_rss_mb", "MB", peakRSSMB())
		line("op_error_frac", "fraction", ratio(float64(it.failed()), float64(it.attempted())))
		for _, m := range mod {
			line(m.name, m.unit, m.value)
		}
	}
	fmt.Printf("== %s seed 0 traced: per-layer split\n", row.w.name)
	ms := append(append(append(metrics{}, row.traced.layers...), row.traced.engine...), row.traced.crit...)
	ms.add("trace.overhead_pct", "%", 100*(ratio(row.traced.wall.measured.Seconds(), row.seed0.wall.measured.Seconds())-1))
	for _, m := range ms {
		if m.value != 0 {
			fmt.Printf("  %-40s %16.6g %s\n", m.name, m.value, m.unit)
		}
	}
	os.Stdout.Sync()
}
