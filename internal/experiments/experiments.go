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
	"fmt"
	"sort"
	"strings"

	"gfs/internal/metrics"
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
	// Run executes the experiment at its default configuration in env.
	Run func(env Env) *Result
}

// All returns the experiment registry in presentation order.
func All() []Runner {
	return []Runner{
		{"sc02", "Fig. 2 — SC'02 FCIP read from the show floor", func(e Env) *Result { c := DefaultSC02Config(); c.Env = e; return RunSC02(c) }},
		{"sc03", "Fig. 5 — SC'03 native WAN-GPFS bandwidth", func(e Env) *Result { c := DefaultSC03Config(); c.Env = e; return RunSC03(c) }},
		{"sc04", "Fig. 8 — SC'04 multi-cluster transfer rates", func(e Env) *Result { c := DefaultSC04Config(); c.Env = e; return RunSC04(c) }},
		{"storcloud", "§4 — SC'04 local StorCloud file system rate", func(e Env) *Result { c := DefaultStorCloudConfig(); c.Env = e; return RunStorCloudLocal(c) }},
		{"production", "Fig. 11 — 2005 production scaling, reads and writes", func(e Env) *Result { c := DefaultProductionConfig(); c.Env = e; return RunProductionScaling(c) }},
		{"anl", "§5 — ANL remote mount, 32 nodes", func(e Env) *Result { c := DefaultANLConfig(); c.Env = e; return RunANL(c) }},
		{"deisa", "§7 — DEISA core-site MC-GPFS", func(e Env) *Result { c := DefaultDEISAConfig(); c.Env = e; return RunDEISA(c) }},
		{"paradigm", "§1/§8 — direct GFS access vs GridFTP movement", func(e Env) *Result { c := DefaultParadigmConfig(); c.Env = e; return RunParadigm(c) }},
		{"hsm", "§8 — HSM migration and recall", func(e Env) *Result { c := DefaultHSMConfig(); c.Env = e; return RunHSM(c) }},
		{"cache", "§8 — automatic edge caching over a copyright library", func(e Env) *Result { c := DefaultCacheConfig(); c.Env = e; return RunCache(c) }},
		{"failover", "Fig. 5 / §3 — dip-and-recovery under an injected NSD server crash", func(e Env) *Result { c := DefaultFailoverConfig(); c.Env = e; return RunFailover(c) }},
		{"metastorm", "§6 — metadata storm over the sharded token/metadata plane", func(e Env) *Result { c := DefaultMetastormConfig(); c.Env = e; return RunMetastorm(c) }},
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
