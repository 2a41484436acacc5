package critpath

// Incremental attribution. Agg analyzes each operation's tree the moment
// its root span arrives, folds the result into its op type's running
// totals and frees the spans, so memory is the spans of operations still
// in flight plus a few words per finished op: its end-to-end latency and,
// if it waited on background work, its (fetch, flush) wait pair. Report
// sorts the latencies for exact nearest-rank quantiles and redistributes
// every waiting instance over the final background profiles, so a report
// is independent of whether its events were retained.

import (
	"maps"
	"slices"
	"sort"

	"gfs/internal/trace"
)

// aggStats is one op type's running aggregate.
type aggStats struct {
	count      int
	totalNs    int64
	start, end int64
	lats       []int64
	phases     map[string]int64
	waits      [][2]int64 // one pair per instance that waited
}

// Agg folds trace events into per-op-type attribution aggregates
// incrementally. Feed it through a tracer observer:
//
//	agg := critpath.NewAgg()
//	tr.Configure(trace.Config{
//		Observer: agg.Observe,
//		Discard:  true, // nothing retained
//	})
//
// and call Report after (or during) the run.
type Agg struct {
	open  map[int64]*aggOp
	stats map[string]*aggStats
}

// aggOp buffers one in-flight operation's spans.
type aggOp struct {
	nodes []*node
}

// NewAgg returns an empty aggregator.
func NewAgg() *Agg {
	return &Agg{open: map[int64]*aggOp{}, stats: map[string]*aggStats{}}
}

// Reset drops everything observed so far, in-flight spans included.
func (a *Agg) Reset() { *a = *NewAgg() }

// Observe consumes one trace event (the trace.Tracer observer
// signature). Span events of attributed operations are buffered until
// the operation's root span arrives — spans are recorded when they end,
// and the root interval covers all its children, so the root is last —
// at which point the tree is analyzed and released.
func (a *Agg) Observe(e trace.Event, args []trace.Arg) {
	if e.Kind != trace.Span || e.Op == 0 {
		return
	}
	g := a.open[e.Op]
	if g == nil {
		g = &aggOp{}
		a.open[e.Op] = g
	}
	ec := e
	var ac []trace.Arg
	if len(args) > 0 {
		ac = append([]trace.Arg(nil), args...)
	}
	g.nodes = append(g.nodes, &node{ev: &ec, idx: len(g.nodes), args: ac})
	if ec.Parent == 0 && ec.Cat == "op" {
		delete(a.open, e.Op)
		if inst := analyzeOp(e.Op, g.nodes); inst != nil {
			a.fold(inst)
		}
	}
}

// fold merges one finished instance into its op type's aggregate.
func (a *Agg) fold(inst *OpInstance) {
	s := a.stats[inst.Name]
	if s == nil {
		s = &aggStats{start: inst.Start, end: inst.Start + inst.E2E, phases: map[string]int64{}}
		a.stats[inst.Name] = s
	}
	s.count++
	s.totalNs += inst.E2E
	s.start = min(s.start, inst.Start)
	s.end = max(s.end, inst.Start+inst.E2E)
	s.lats = append(s.lats, inst.E2E)
	for ph, d := range inst.Phases {
		s.phases[ph] += d
	}
	if inst.waits != [2]int64{} {
		s.waits = append(s.waits, inst.waits)
	}
}

// Open returns the number of operations whose root span has not arrived
// yet — after a run drains this should be zero; a nonzero value means
// root spans were sampled away or never recorded, and that much
// attribution is missing from Report.
func (a *Agg) Open() int { return len(a.open) }

// Report finalizes the aggregates. Operations still open (rootless) are
// left out.
func (a *Agg) Report() *Report {
	rep := &Report{}
	for k, target := range waitTargets {
		if s := a.stats[target]; s != nil {
			rep.bg[k].phases = maps.Clone(s.phases)
			for _, d := range s.phases {
				rep.bg[k].total += d
			}
		}
	}
	names := make([]string, 0, len(a.stats))
	for n := range a.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		src := a.stats[n]
		s := &OpStats{
			Name: n, Count: src.count, TotalNs: src.totalNs,
			Start: src.start, End: src.end,
			lats: slices.Clone(src.lats), Phases: maps.Clone(src.phases),
		}
		slices.Sort(s.lats)
		for _, w := range src.waits {
			rep.redistribute(s.Phases, w)
		}
		rep.Ops = append(rep.Ops, s)
	}
	return rep
}
