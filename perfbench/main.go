// Command perfbench is the repository benchmark. It stands up the
// paper's topologies with the experiments package's site helpers,
// drives core.Mount and core.File calls from its own simulated
// processes, times every call in virtual time and every phase in wall
// time, and reads each layer's public counters after the run.
//
//	perfbench -workload wan_read -seed 3 -seconds 20 -trace 0
//
// prints the end-to-end metrics; -trace 1 prints the per-layer split
// instead, from an extra profiled and traced run. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// perfbench -check runs every workload at the canonical seed 0 and the
// held-out seed 1, cross-checks the modeled rates against the
// experiments' own headlines, checks determinism and the layer mapping,
// prints every metric by name with its unit, and exits non-zero on any
// failure. GLOSSARY.md defines each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: wan_read, mpiio_rw or metastorm")
	seed := flag.Int64("seed", 0, "input seed; 0 is the canonical input")
	seconds := flag.Float64("seconds", 10, "wall seconds of measured iterations")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	check := flag.Bool("check", false, "run every workload, cross-check against the experiments and exit non-zero on failure")
	commit := flag.String("commit", "unknown", "commit being measured, recorded in the context line")
	flag.Parse()

	printContext(*commit)
	if *check {
		os.Exit(runCheck())
	}
	w, ok := workloadByName(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (wan_read, mpiio_rw, metastorm), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	res := bench(w, *seed, *seconds, *traceFlag == 1)
	res.print(os.Stdout)
}

// printContext records the machine and build the numbers came from.
// GOMAXPROCS is capped at the CPUs this process may run on.
func printContext(commit string) {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	ctx := map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"load1":      load1(),
	}
	b, _ := json.Marshal(ctx) // a map of plain values always marshals
	fmt.Printf("# context %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// A run times at least minSetups set-ups, and keeps timing set-up-only
// iterations for a quarter of its measuring time. setup_s is their
// median: RSA key generation alone varies tenfold between set-ups.
const minSetups = 15

// result is one benchmark run: several iterations of one workload and
// seed.
type result struct {
	workload   string
	seed       int64
	iterations int
	correct    bool
	attempted  int
	failed     int
	problems   []string
	metrics    metrics

	// Every measured iteration's wall seconds, and every set-up's wall
	// seconds and key-generation milliseconds.
	walls, setups, keygen []float64
}

// bench runs iterations of w for the given wall seconds. Untraced, it
// reports the end-to-end metrics; traced, it spends half the time on
// profiled iterations and the rest on traced ones and reports the
// per-layer metrics. Every deterministic output must agree across all
// iterations.
func bench(w workload, seed int64, seconds float64, tracedRun bool) *result {
	start := time.Now()
	res := &result{workload: w.name, seed: seed, correct: true}
	var measured, tracedIts, all []*iter
	one := func(m mode) *iter {
		runtime.GC() // each iteration starts without the last one's garbage
		it := runIter(w, seed, m)
		all = append(all, it)
		if m != setupOnly {
			res.attempted += it.attempted()
			res.failed += it.failed()
		}
		for _, p := range it.errs {
			res.problems = append(res.problems, "call failed: "+p)
		}
		for _, p := range it.wrongs {
			res.problems = append(res.problems, "check: "+p)
		}
		return it
	}
	m, budget := plain, seconds
	if tracedRun {
		m, budget = profiled, seconds/2
	}
	// Another iteration starts only if one as long as the last still fits
	// the budget, so a run makes the same number of iterations each time.
	var last time.Duration
	fits := func(budget float64) bool { return (time.Since(start) + last).Seconds() <= budget }
	for len(measured) == 0 || fits(budget) {
		t := time.Now()
		measured = append(measured, one(m))
		last = time.Since(t)
	}
	for tracedRun && (len(tracedIts) == 0 || fits(seconds)) {
		t := time.Now()
		tracedIts = append(tracedIts, one(traced))
		last = time.Since(t)
	}
	setupStart := time.Now()
	for len(all) < minSetups || time.Since(setupStart).Seconds() < seconds/4 {
		one(setupOnly)
	}
	res.iterations = len(measured) + len(tracedIts)

	ref := measured[0]
	for _, it := range append(measured[1:], tracedIts...) {
		if diff := diffMetrics(ref.det, it.det); diff != "" {
			res.problems = append(res.problems, "nondeterministic: "+diff)
		}
	}
	var walls, setups, keygen, mount []float64
	for _, it := range measured {
		walls = append(walls, it.wall.measured.Seconds())
	}
	for _, it := range all {
		setups = append(setups, it.wall.setup.Seconds())
		keygen = append(keygen, float64(it.wall.keygen.Nanoseconds())/1e6)
		mount = append(mount, float64(it.wall.mount.Nanoseconds())/1e6)
	}
	res.walls, res.setups = walls, setups
	res.keygen = keygen
	wallS := median(walls)
	mod := ref.mod
	if !tracedRun {
		res.metrics.add("wall_s", "s", wallS)
		res.metrics.add("setup_s", "s", median(setups))
		res.metrics.add("peak_rss_mb", "MB", peakRSSMB())
		for _, m := range mod[:4] {
			res.metrics = append(res.metrics, m)
		}
	} else {
		res.metrics = append(res.metrics, mod[4:]...)
		res.metrics = append(res.metrics, ref.layers...)
		events, _ := ref.layers.get("sim.events")
		res.metrics.add("sim.events_per_wall_s", "1/s", ratio(events, wallS))
		var allocs []float64
		for _, it := range measured {
			allocs = append(allocs, ratio(float64(it.mallocs), events))
		}
		res.metrics.add("sim.allocs_per_event", "count", median(allocs))
		res.metrics = append(res.metrics, tracedIts[0].engine...)
		res.metrics = append(res.metrics, tracedIts[0].crit...)
		res.metrics.add("auth.keygen_ms", "ms", median(keygen))
		res.metrics.add("auth.mount_ms", "ms", median(mount))
		var twalls []float64
		for _, it := range tracedIts {
			twalls = append(twalls, it.wall.measured.Seconds())
		}
		res.metrics.add("trace.overhead_pct", "%", 100*(ratio(median(twalls), wallS)-1))
		var profiles [][]byte
		for _, it := range measured {
			profiles = append(profiles, it.profile.Bytes())
		}
		split, err := wallSplitPct(profiles)
		if err != nil {
			res.problems = append(res.problems, err.Error())
		}
		for _, l := range wallLayers {
			res.metrics.add("wall."+l+"_pct", "%", split[l])
		}
		if w.name == "metastorm" {
			for _, n := range bypassedOnMetastorm {
				if v, _ := res.metrics.get(n); v != 0 {
					res.problems = append(res.problems, fmt.Sprintf("layer mapping: %s = %g on metastorm, want 0", n, v))
				}
			}
		}
	}
	if len(res.problems) > 0 {
		res.correct = false
	}
	return res
}

// bypassedOnMetastorm are the counters of layers the storm must not
// touch: its NSDs are rate stores, with no RAID or drives behind them.
var bypassedOnMetastorm = []string{
	"raid.rmw_frac", "raid.full_stripe_writes", "raid.reads",
	"disk.ops", "disk.util_mean", "disk.util_max", "san.fc_util_max",
}

// determinism lists every output of an iteration that depends on
// virtual time only, plus the raw call and event counts.
func determinism(it *iter) metrics {
	out := append(append(metrics{}, it.mod...), it.layers...)
	out.add("events_total", "count", float64(it.s.EventsFired()))
	for op := range it.done {
		out.add("calls."+opNames[op], "count", float64(it.done[op]))
		out.add("bytes."+opNames[op], "B", float64(it.bytes[op]))
	}
	for _, ph := range it.phases {
		out.add("phase."+ph.name+"_ns", "ns", float64(ph.dur))
	}
	return out
}

// diffMetrics describes the first few values that differ, or "".
func diffMetrics(a, b metrics) string {
	var diffs []string
	if len(a) != len(b) {
		return fmt.Sprintf("%d values vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].name != b[i].name || a[i].value != b[i].value {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", a[i].name, a[i].value, b[i].value))
		}
	}
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("and %d more", len(diffs)-3))
	}
	return strings.Join(diffs, "; ")
}

// print writes the human-readable record, then the result line.
func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "# workload %s seed %d: %d measured iterations, %d/%d calls failed\n",
		r.workload, r.seed, r.iterations, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(f, "# problem: %s\n", p)
	}
	fmt.Fprintf(f, "# walls (s): %.4f\n# set-ups (s): %.4f\n# keygen (ms): %.1f\n", r.walls, r.setups, r.keygen)
	for _, m := range r.metrics {
		fmt.Fprintf(f, "# %-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms}
	b, err := json.Marshal(line)
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal: a bug upstream.
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", b)
}
