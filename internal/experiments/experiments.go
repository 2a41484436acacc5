// Package experiments reconstructs every quantitative artifact of the
// paper — Figures 2, 5, 8 and 11 plus the headline deployment numbers
// (SC'04 StorCloud local rate, ANL remote mount, DEISA core sites, the
// GFS-vs-GridFTP paradigm comparison and the HSM future-work scenario) —
// on top of the simulation substrates. Each Run* function builds the
// generation-appropriate topology, drives the paper's workload, and
// returns series/headlines; cmd/gfssim and the benchmark harness print
// them.
package experiments

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"gfs/internal/metrics"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// Result is one experiment's output.
type Result struct {
	ID       string
	Title    string
	Series   []*metrics.Series
	Headline map[string]float64
	Notes    []string
}

// NewResult initializes an empty result.
func NewResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Headline: map[string]float64{}}
}

// Add attaches a series.
func (r *Result) Add(s *metrics.Series) { r.Series = append(r.Series, s) }

// Note records a free-form observation.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// HeadlineTable renders the named scalars as an aligned table, keys
// sorted.
func (r *Result) HeadlineTable() string {
	keys := make([]string, 0, len(r.Headline))
	for k := range r.Headline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([][]string, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, []string{k, fmt.Sprintf("%.2f", r.Headline[k])})
	}
	return metrics.Table([]string{"metric", "value"}, rows)
}

// String renders the full result: headline table, notes, and an ASCII
// chart per series group.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(r.HeadlineTable())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Series) > 0 {
		ch := metrics.NewChart(r.Title)
		for _, s := range r.Series {
			ch.Add(s)
		}
		b.WriteString(ch.Render())
	}
	return b.String()
}

// Runner is a registered experiment.
type Runner struct {
	Name  string
	Paper string // which figure/table/section it regenerates
	// Tuning names the gfssim tuning flags the experiment reads. A flag
	// some entry declares is a tuning flag; gfssim rejects one given to
	// an experiment that does not declare it.
	Tuning []string
	// Run executes the experiment in env: at its default configuration
	// for an entry of All, as tuned for an entry of Tuned.
	Run func(env Env) *Result
}

// All returns the experiment registry in presentation order, every
// experiment at its default configuration.
func All() []Runner {
	var o Options
	o.Register(flag.NewFlagSet("defaults", flag.ContinueOnError))
	return Tuned(&o)
}

// Tuned returns the registry with each experiment configured from the
// tuning flags it declares in o. A flag left at its default leaves the
// configuration at its default; o must have passed Validate.
func Tuned(o *Options) []Runner {
	return []Runner{
		{"sc02", "Fig. 2 — SC'02 FCIP read from the show floor", []string{"depth", "block", "filesize"}, func(e Env) *Result {
			c := DefaultSC02Config()
			override(&c.Depth, o.Depth)
			override(&c.BlockSize, units.Bytes(o.Block))
			override(&c.FileSize, units.Bytes(o.FileSize))
			c.Env = e
			return RunSC02(c)
		}},
		{"sc03", "Fig. 5 — SC'03 native WAN-GPFS bandwidth", []string{"ra-depth", "wb-max-dirty"}, func(e Env) *Result {
			c := DefaultSC03Config()
			c.ReadAhead, c.WriteBehind, c.Env = o.RADepth, o.WBDirty, e
			return RunSC03(c)
		}},
		{"sc04", "Fig. 8 — SC'04 multi-cluster transfer rates", nil, func(e Env) *Result { c := DefaultSC04Config(); c.Env = e; return RunSC04(c) }},
		{"storcloud", "§4 — SC'04 local StorCloud file system rate", nil, func(e Env) *Result { c := DefaultStorCloudConfig(); c.Env = e; return RunStorCloudLocal(c) }},
		{"production", "Fig. 11 — 2005 production scaling, reads and writes", []string{"nodes", "size", "gather", "wide-tokens"}, func(e Env) *Result {
			c := DefaultProductionConfig()
			c.NodeCounts, _ = o.NodeCounts(c.NodeCounts) // both checked by Validate
			sz, _ := o.SizeBytes()
			override(&c.SizePer, sz)
			c.Gather, c.WideTokens, c.Env = o.Gather, o.WideTok, e
			return RunProductionScaling(c)
		}},
		{"anl", "§5 — ANL remote mount, 32 nodes", nil, func(e Env) *Result { c := DefaultANLConfig(); c.Env = e; return RunANL(c) }},
		{"deisa", "§7 — DEISA core-site MC-GPFS", nil, func(e Env) *Result { c := DefaultDEISAConfig(); c.Env = e; return RunDEISA(c) }},
		{"paradigm", "§1/§8 — direct GFS access vs GridFTP movement", nil, func(e Env) *Result { c := DefaultParadigmConfig(); c.Env = e; return RunParadigm(c) }},
		{"hsm", "§8 — HSM migration and recall", nil, func(e Env) *Result { c := DefaultHSMConfig(); c.Env = e; return RunHSM(c) }},
		{"cache", "§8 — automatic edge caching over a copyright library", nil, func(e Env) *Result { c := DefaultCacheConfig(); c.Env = e; return RunCache(c) }},
		{"failover", "Fig. 5 / §3 — dip-and-recovery under an injected NSD server crash", []string{"crash", "outage", "duration", "ra-depth", "wb-max-dirty"}, func(e Env) *Result {
			c := DefaultFailoverConfig()
			override(&c.CrashAt, sim.Time(o.CrashAt))
			override(&c.Outage, sim.Time(o.Outage))
			override(&c.Duration, sim.Time(o.Duration))
			c.ReadAhead, c.WriteBehind, c.Env = o.RADepth, o.WBDirty, e
			return RunFailover(c)
		}},
		{"metastorm", "§6 — metadata storm over the sharded token/metadata plane", []string{"token-shards"}, func(e Env) *Result {
			c := DefaultMetastormConfig()
			if o.TokenShards >= 0 {
				c.Shards = []int{o.TokenShards}
			}
			c.Env = e
			return RunMetastorm(c)
		}},
	}
}

// override sets *dst to v unless v is zero, a tuning flag's "not given".
func override[T comparable](dst *T, v T) {
	if v != *new(T) {
		*dst = v
	}
}

// ByName finds a registered experiment.
func ByName(name string) (Runner, bool) {
	for _, r := range All() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}
