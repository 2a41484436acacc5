package critpath

// Incremental (aggregate-only) attribution. Analyze needs the whole
// trace in RAM; at 1024+ nodes that is gigabytes. Agg computes the same
// per-op-type report while retaining only the spans of operations still
// in flight: each operation's tree is analyzed and folded into running
// aggregates the moment its root span arrives, then its spans are freed.
// Latency quantiles come from a log-scale metrics.Histogram instead of a
// stored latency list, so the memory bound is O(in-flight ops + op
// types), independent of run length.
//
// Two deliberate approximations versus Analyze, both bounded:
//   - Quantiles have the histogram's ~9% bucket resolution instead of
//     being exact nearest-rank values.
//   - Background-wait redistribution (fetch_wait/sync_wait) uses the
//     whole-run fetch/flush phase profiles applied to the *summed* wait
//     time per op type, where Analyze applies them per instance; the two
//     differ only by per-instance rounding (< one ns per instance and
//     phase).

import (
	"sort"

	"gfs/internal/metrics"
	"gfs/internal/trace"
)

// aggStats is one op type's running aggregate.
type aggStats struct {
	count   int
	totalNs int64
	hist    *metrics.Histogram
	phases  map[string]int64
	waits   map[string]int64 // pending redistribution, by target op type
}

// Agg folds trace events into per-op-type attribution aggregates
// incrementally. Feed it through a tracer observer:
//
//	agg := critpath.NewAgg()
//	tr.Configure(trace.Config{
//		Observer: agg.Observe,
//		Discard:  true, // aggregate-only: nothing retained
//	})
//
// and call Report after the run.
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
		s = &aggStats{hist: metrics.NewHistogram(),
			phases: map[string]int64{}, waits: map[string]int64{}}
		a.stats[inst.Name] = s
	}
	s.count++
	s.totalNs += inst.E2E
	s.hist.Observe(float64(inst.E2E))
	for ph, d := range inst.Phases {
		s.phases[ph] += d
	}
	for tgt, d := range inst.waits {
		s.waits[tgt] += d
	}
}

// Open returns the number of operations whose root span has not arrived
// yet — after a run drains this should be (close to) zero; a large value
// means root spans were sampled away or never recorded, and that much
// attribution is missing from Report.
func (a *Agg) Open() int { return len(a.open) }

// Report finalizes the aggregates into the same Report shape Analyze
// produces. Operations still open (rootless) are dropped, exactly as
// Analyze drops rootless span groups. Per-instance data is not retained,
// so Slowest and Instances on the returned report are empty.
func (a *Agg) Report() *Report {
	rep := &Report{}
	names := make([]string, 0, len(a.stats))
	for n := range a.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		src := a.stats[n]
		s := &OpStats{
			Name: n, Count: src.count, TotalNs: src.totalNs,
			hist: src.hist, Phases: map[string]int64{},
		}
		for ph, d := range src.phases {
			s.Phases[ph] += d
		}
		rep.Ops = append(rep.Ops, s)
	}
	// Redistribute summed background waits using the whole-run fetch and
	// flush profiles — the aggregate analogue of Report.redistribute.
	for i, n := range names {
		src := a.stats[n]
		s := rep.Ops[i]
		for _, target := range []string{"fetch", "flush"} {
			w := src.waits[target]
			if w == 0 {
				continue
			}
			prof := a.stats[target]
			var tot int64
			if prof != nil {
				for _, d := range prof.phases {
					tot += d
				}
			}
			if tot == 0 {
				s.Phases[PhaseCache] += w
				continue
			}
			distributed := int64(0)
			maxPh, maxV := PhaseCache, int64(-1)
			for _, ph := range Phases {
				v := prof.phases[ph]
				if v == 0 {
					continue
				}
				share := int64(float64(w) * (float64(v) / float64(tot)))
				s.Phases[ph] += share
				distributed += share
				if v > maxV {
					maxPh, maxV = ph, v
				}
			}
			if rem := w - distributed; rem != 0 {
				s.Phases[maxPh] += rem
			}
		}
	}
	return rep
}
