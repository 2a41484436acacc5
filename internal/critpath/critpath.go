// Package critpath turns a causal trace (see internal/trace) into a
// latency-attribution report: for every client-level operation it
// reconstructs the span tree, extracts the critical path — at each
// level the child that finished last owns the interval back to its
// start, recursively — and classifies each critical-path segment into a
// phase: client CPU-side residual, token wait, RPC residual, network
// queueing, network transmission (serialization), WAN propagation, disk
// service, and cache machinery.
//
// One algorithm computes every report: Agg (agg.go) analyzes each
// operation the moment its root span is recorded, live during a run or
// replayed from a dump by Analyze, and keeps only in-flight spans plus a
// few words per finished op, so reports are exact at any run length.
//
// Foreground operations often block not on their own I/O but on shared
// background work: a ReadAt waits on a demand fetch another read
// started, a Sync on the flush drain. Those waits appear in traces as
// cache "*_wait" spans; each waiting instance's time is redistributed
// over the aggregate phase profile of the background op type that did
// the work ("fetch" or "flush"), so the final table answers "where did
// the time go" truthfully — e.g. a sync whose flushes sat in RAID5
// read-modify-write is charged to disk, not to an opaque cache bucket.
//
// Two pipelining stalls are charged directly instead of redistributed,
// because each is the externally visible cost of a tuning knob: a
// prefetch_hit span is the residual latency of a readahead that was
// only partially hidden (deepen -ra-depth to shrink it), and a
// writeback span is write-behind backpressure — the writer ran into the
// dirty-page bound (raise -wb-max-dirty or add NSD bandwidth).
//
// Everything here is deterministic: ties are broken by span end, start
// and emission order, and rendering uses fixed formats — two runs of
// the same experiment produce byte-identical reports.
package critpath

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gfs/internal/trace"
)

// Phase names, in display order.
const (
	PhaseClient    = "client"
	PhaseToken     = "token_wait"
	PhaseRPC       = "rpc"
	PhaseRetry     = "retry"
	PhaseProbe     = "failover_probe"
	PhaseNetQueue  = "net_queue"
	PhaseNetXmit   = "net_xmit"
	PhaseProp      = "wan_prop"
	PhaseDiskQueue = "disk_queue"
	PhaseDisk      = "disk"
	PhaseCache     = "cache"
	PhasePrefetch  = "prefetch_hit"
	PhaseWriteback = "writeback"
	PhaseOther     = "other"
)

// Phases lists every phase in canonical display order.
var Phases = []string{
	PhaseClient, PhaseToken, PhaseRPC,
	PhaseRetry, PhaseProbe,
	PhaseNetQueue, PhaseNetXmit, PhaseProp,
	PhaseDiskQueue, PhaseDisk, PhaseCache, PhasePrefetch, PhaseWriteback, PhaseOther,
}

// waitTargets names the background op types whose profiles absorb
// cache wait time, and waitTarget maps each wait-span name to its index
// there. prefetch_hit and writeback spans are deliberately absent: they
// charge to their own phases.
var (
	waitTargets = [2]string{"fetch", "flush"}
	waitTarget  = map[string]int{"fetch_wait": 0, "sync_wait": 1}
)

// OpInstance is one analyzed operation.
type OpInstance struct {
	ID     int64
	Name   string
	Track  string
	Start  int64
	E2E    int64            // end-to-end nanoseconds (root span duration)
	Phases map[string]int64 // critical-path nanoseconds per phase
	waits  [2]int64         // wait ns pending redistribution, by waitTargets index
}

// OpStats aggregates all instances of one op type.
type OpStats struct {
	Name       string
	Count      int
	TotalNs    int64
	Start, End int64   // first start and last end of any instance
	lats       []int64 // sorted ascending
	Phases     map[string]int64
}

// Quantile returns the exact nearest-rank q-quantile (0 < q <= 1) of the
// op type's end-to-end latencies.
func (s *OpStats) Quantile(q float64) int64 {
	if len(s.lats) == 0 {
		return 0
	}
	i := int(q*float64(len(s.lats))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.lats) {
		i = len(s.lats) - 1
	}
	return s.lats[i]
}

// profile is a background op type's summed critical-path phases before
// any redistribution: the shape its waiters' time is spread over.
type profile struct {
	phases map[string]int64
	total  int64
}

// Report is the analysis product for one trace.
type Report struct {
	Ops []*OpStats // sorted by op-type name
	bg  [2]profile // by waitTargets index
}

// node is one span in an op's tree during analysis.
type node struct {
	ev       *trace.Event
	idx      int // emission index, the final tie-breaker
	args     []trace.Arg
	children []*node
}

func (n *node) end() int64 { return n.ev.TS + n.ev.Dur }

// Analyze replays every event retained by t through an aggregator and
// returns its report: the offline twin of a live Agg observer.
func Analyze(t *trace.Tracer) *Report {
	a := NewAgg()
	events := t.Events()
	for i := range events {
		a.Observe(events[i], t.EvArgs(&events[i]))
	}
	return a.Report()
}

// spans returns op's span nodes in t, in emission order.
func spans(t *trace.Tracer, op int64) []*node {
	events := t.Events()
	var nodes []*node
	for i := range events {
		if e := &events[i]; e.Kind == trace.Span && e.Op == op {
			nodes = append(nodes, &node{ev: e, idx: i, args: t.EvArgs(e)})
		}
	}
	return nodes
}

// link wires each node under its parent and returns, in emission order,
// the nodes with no parent among nodes: roots and orphans.
func link(nodes []*node) []*node {
	bySID := map[int64]*node{}
	for _, n := range nodes {
		if n.ev.SID != 0 {
			bySID[n.ev.SID] = n
		}
	}
	var roots []*node
	for _, n := range nodes {
		if p, ok := bySID[n.ev.Parent]; n.ev.Parent != 0 && ok {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// analyzeOp builds one op's tree and walks its critical path. The root
// is the first parentless "op" span; orphaned spans are ignored.
func analyzeOp(op int64, nodes []*node) *OpInstance {
	var root *node
	for _, n := range link(nodes) {
		if n.ev.Parent == 0 && n.ev.Cat == "op" {
			root = n
			break
		}
	}
	if root == nil {
		return nil
	}
	inst := &OpInstance{
		ID: op, Name: root.ev.Name, Track: root.ev.Track,
		Start: root.ev.TS, E2E: root.ev.Dur,
		Phases: map[string]int64{},
	}
	attribute(root, root.ev.TS, root.end(), inst, "")
	return inst
}

// attribute charges [lo, hi] of n's interval: children own their
// sub-intervals ("last finisher wins" going backwards), the rest is n's
// own residual. absorb, when non-empty, is a phase that swallows the
// whole subtree: a token span's subtree (the acquire RPC, its flows, the
// server-side revoke fan-out) is all token machinery, and a failover
// probe's subtree (the probe RPC to a possibly-dead server) is all
// recovery cost — their time charges to one phase regardless of
// transport.
func attribute(n *node, lo, hi int64, inst *OpInstance, absorb string) {
	if hi <= lo {
		return // zero-duration interval: nothing to attribute
	}
	kids := n.children
	if len(kids) > 1 {
		kids = append([]*node(nil), kids...)
		sort.Slice(kids, func(i, j int) bool {
			ei, ej := kids[i].end(), kids[j].end()
			if ei != ej {
				return ei > ej
			}
			if kids[i].ev.TS != kids[j].ev.TS {
				return kids[i].ev.TS > kids[j].ev.TS
			}
			return kids[i].idx > kids[j].idx
		})
	}
	if absorb == "" {
		switch n.ev.Cat {
		case "token":
			absorb = PhaseToken
		case "failover":
			absorb = PhaseProbe
		}
	}
	cur := hi
	for _, k := range kids {
		if cur <= lo {
			break
		}
		ks, ke := k.ev.TS, k.end()
		if ke > cur {
			ke = cur
		}
		if ks < lo {
			ks = lo
		}
		if ke <= ks {
			continue
		}
		if ke < cur {
			charge(n, ke, cur, inst, absorb) // n's own time between children
		}
		attribute(k, ks, ke, inst, absorb)
		cur = ks
	}
	if cur > lo {
		charge(n, lo, cur, inst, absorb)
	}
}

// charge classifies [lo, hi] of n's own (residual) time into a phase.
func charge(n *node, lo, hi int64, inst *OpInstance, absorb string) {
	d := hi - lo
	if d <= 0 {
		return
	}
	e := n.ev
	if absorb != "" {
		inst.Phases[absorb] += d
		return
	}
	switch e.Cat {
	case "op":
		inst.Phases[PhaseClient] += d
	case "token":
		inst.Phases[PhaseToken] += d
	case "rpc", "auth":
		inst.Phases[PhaseRPC] += d
	case "retry":
		inst.Phases[PhaseRetry] += d
	case "failover":
		inst.Phases[PhaseProbe] += d
	case "nsd", "disk":
		if e.Name == "elev_wait" {
			// Time a request sat in the NSD elevator queue before its
			// (possibly merged) disk submission started.
			inst.Phases[PhaseDiskQueue] += d
		} else {
			inst.Phases[PhaseDisk] += d
		}
	case "flow":
		chargeFlow(n, lo, hi, inst)
	case "cache":
		switch e.Name {
		case "prefetch_hit":
			inst.Phases[PhasePrefetch] += d
		case "writeback":
			inst.Phases[PhaseWriteback] += d
		default:
			if k, ok := waitTarget[e.Name]; ok {
				inst.waits[k] += d
			} else {
				inst.Phases[PhaseCache] += d
			}
		}
	default:
		inst.Phases[PhaseOther] += d
	}
}

// chargeFlow splits a flow segment into queue / transmission /
// propagation using the absolute sub-interval boundaries the flow span
// carries as args.
func chargeFlow(n *node, lo, hi int64, inst *OpInstance) {
	var qNs, xNs, pNs int64
	seen := 0
	for _, a := range n.args {
		switch a.Key {
		case "queue_ns":
			qNs, seen = a.IVal, seen+1
		case "xmit_ns":
			xNs, seen = a.IVal, seen+1
		case "prop_ns":
			pNs, seen = a.IVal, seen+1
		}
	}
	if seen != 3 {
		inst.Phases[PhaseNetXmit] += hi - lo
		return
	}
	ts := n.ev.TS
	bounds := [4]int64{ts, ts + qNs, ts + qNs + xNs, ts + qNs + xNs + pNs}
	phases := [3]string{PhaseNetQueue, PhaseNetXmit, PhaseProp}
	for i := 0; i < 3; i++ {
		s, e := bounds[i], bounds[i+1]
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			inst.Phases[phases[i]] += e - s
		}
	}
}

// redistribute charges one instance's background waits to concrete
// phases in proportion to the fetch or flush profile, handing the
// rounding remainder to the profile's largest phase. With no observed
// background work of that type, the wait stays in the cache phase.
func (r *Report) redistribute(phases map[string]int64, waits [2]int64) {
	for k, w := range waits {
		if w == 0 {
			continue
		}
		prof := r.bg[k]
		if prof.total == 0 {
			phases[PhaseCache] += w
			continue
		}
		distributed := int64(0)
		maxPh, maxV := PhaseCache, int64(-1)
		for _, ph := range Phases {
			v := prof.phases[ph]
			if v == 0 {
				continue
			}
			share := int64(float64(w) * (float64(v) / float64(prof.total)))
			phases[ph] += share
			distributed += share
			if v > maxV {
				maxPh, maxV = ph, v
			}
		}
		if rem := w - distributed; rem != 0 {
			phases[maxPh] += rem
		}
	}
}

// Slowest analyzes the n operations in t with the longest root spans
// (ties: ascending op ID) and redistributes their waits over r's
// background profiles, so each instance's phases read like r's rows. r
// should be the report of the same trace.
func (r *Report) Slowest(t *trace.Tracer, n int) []*OpInstance {
	type root struct{ op, dur int64 }
	var roots []root
	events := t.Events()
	for i := range events {
		if e := &events[i]; e.Kind == trace.Span && e.Op != 0 && e.Parent == 0 && e.Cat == "op" {
			roots = append(roots, root{e.Op, e.Dur})
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].dur != roots[j].dur {
			return roots[i].dur > roots[j].dur
		}
		return roots[i].op < roots[j].op
	})
	if n < len(roots) {
		roots = roots[:n]
	}
	out := make([]*OpInstance, 0, len(roots))
	for _, rt := range roots {
		inst := analyzeOp(rt.op, spans(t, rt.op))
		r.redistribute(inst.Phases, inst.waits)
		out = append(out, inst)
	}
	return out
}

// fmtMs renders nanoseconds as fixed-format milliseconds.
func fmtMs(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}

// pct renders part/whole as a fixed-format percentage.
func pct(part, whole int64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

// activePhases returns the phases that are nonzero anywhere in the
// report, in canonical order — keeps tables narrow.
func (r *Report) activePhases() []string {
	var out []string
	for _, ph := range Phases {
		for _, s := range r.Ops {
			if s.Phases[ph] != 0 {
				out = append(out, ph)
				break
			}
		}
	}
	return out
}

// WriteTable renders the attribution report: one latency row per op
// type (count, mean, p50/p95/p99) and one phase row showing where the
// summed end-to-end time went.
func (r *Report) WriteTable(w io.Writer) {
	if len(r.Ops) == 0 {
		fmt.Fprintln(w, "critpath: no operations in trace")
		return
	}
	cols := r.activePhases()
	fmt.Fprintf(w, "%-8s %8s %12s %12s %12s %12s %14s\n",
		"op", "count", "mean", "p50", "p95", "p99", "e2e total")
	for _, s := range r.Ops {
		mean := int64(0)
		if s.Count > 0 {
			mean = s.TotalNs / int64(s.Count)
		}
		fmt.Fprintf(w, "%-8s %8d %12s %12s %12s %12s %14s\n",
			s.Name, s.Count, fmtMs(mean),
			fmtMs(s.Quantile(0.50)), fmtMs(s.Quantile(0.95)), fmtMs(s.Quantile(0.99)),
			fmtMs(s.TotalNs))
	}
	fmt.Fprintf(w, "\nphase breakdown (%% of summed e2e):\n")
	fmt.Fprintf(w, "%-8s", "op")
	for _, ph := range cols {
		fmt.Fprintf(w, " %10s", ph)
	}
	fmt.Fprintln(w)
	for _, s := range r.Ops {
		fmt.Fprintf(w, "%-8s", s.Name)
		for _, ph := range cols {
			fmt.Fprintf(w, " %10s", pct(s.Phases[ph], s.TotalNs))
		}
		fmt.Fprintln(w)
	}
}

// String renders WriteTable to a string.
func (r *Report) String() string {
	var b strings.Builder
	r.WriteTable(&b)
	return b.String()
}

// WriteOpLat renders the mmpmon-style op_lat section: one line per op
// type with latency quantiles plus its dominant phases.
func (r *Report) WriteOpLat(w io.Writer) {
	for _, s := range r.Ops {
		mean := int64(0)
		if s.Count > 0 {
			mean = s.TotalNs / int64(s.Count)
		}
		fmt.Fprintf(w, "mmpmon op_lat %s n %d mean %s p50 %s p95 %s p99 %s p999 %s",
			s.Name, s.Count, fmtMs(mean),
			fmtMs(s.Quantile(0.50)), fmtMs(s.Quantile(0.95)), fmtMs(s.Quantile(0.99)),
			fmtMs(s.Quantile(0.999)))
		for _, ph := range Phases {
			if d := s.Phases[ph]; d != 0 {
				fmt.Fprintf(w, " %s %s", ph, pct(d, s.TotalNs))
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteTree renders the span tree of one operation, indented, for
// offline drill-down (gfsprof -op). Spans whose parent chain loops
// without reaching a root are rendered as roots where the loop is cut.
func WriteTree(w io.Writer, t *trace.Tracer, op int64) {
	nodes := spans(t, op)
	if len(nodes) == 0 {
		fmt.Fprintf(w, "critpath: no spans for op %d\n", op)
		return
	}
	roots := link(nodes)
	base := nodes[0].ev.TS
	if len(roots) > 0 {
		base = roots[0].ev.TS
	}
	done := map[*node]bool{}
	var dump func(n *node, depth int)
	dump = func(n *node, depth int) {
		done[n] = true
		e := n.ev
		fmt.Fprintf(w, "%s%s/%s [%s +%s] %s\n",
			strings.Repeat("  ", depth), e.Cat, e.Name,
			fmtMs(e.TS-base), fmtMs(e.Dur), e.Track)
		kids := append([]*node(nil), n.children...)
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].ev.TS != kids[j].ev.TS {
				return kids[i].ev.TS < kids[j].ev.TS
			}
			return kids[i].idx < kids[j].idx
		})
		for _, k := range kids {
			if !done[k] {
				dump(k, depth+1)
			}
		}
	}
	for _, n := range append(roots, nodes...) {
		if !done[n] {
			dump(n, 0)
		}
	}
}
