package critpath

import (
	"strings"
	"testing"

	"gfs/internal/trace"
)

// emitOpEndOrder emits a span tree in end-time order (ties: child before
// parent), which is how a live run records spans — each is recorded when
// it ends, and a root interval ends last. Agg depends on this ordering.
func emitOpEndOrder(tr *trace.Tracer, op int64, spans []spanSpec) {
	ordered := append([]spanSpec(nil), spans...)
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			a, b := ordered[i], ordered[j]
			if b.end < a.end || (b.end == a.end && a.parent == 0 && b.parent != 0) {
				ordered[i], ordered[j] = b, a
			}
		}
	}
	emitOp(tr, op, ordered)
}

// buildWorkload emits a mixed workload: reads with rpc/disk/flow trees,
// writes with token subtrees and sync waits, background fetches and
// flushes — every attribution feature in one trace. Deterministic and
// parameterized by nOps.
func buildWorkload(tr *trace.Tracer, nOps int) {
	for i := 0; i < nOps; i++ {
		op := tr.NewOpID()
		base := int64(i) * 10000
		switch i % 4 {
		case 0: // read: client + rpc + disk + flow
			lat := int64(400 + i%7*100)
			emitOpEndOrder(tr, op, []spanSpec{
				{sid: op * 10, parent: 0, cat: "op", name: "read", start: base, end: base + lat},
				{sid: op*10 + 1, parent: op * 10, cat: "rpc", name: "nsd.io", start: base + 20, end: base + lat - 20},
				{sid: 0, parent: op*10 + 1, cat: "flow", name: "xfer", start: base + 30, end: base + 130,
					args: []trace.Arg{trace.I("queue_ns", 20), trace.I("xmit_ns", 50), trace.I("prop_ns", 30)}},
				{sid: 0, parent: op*10 + 1, cat: "nsd", name: "read", start: base + 140, end: base + lat - 40},
			})
		case 1: // write: token subtree + sync wait
			lat := int64(600 + i%5*80)
			emitOpEndOrder(tr, op, []spanSpec{
				{sid: op * 10, parent: 0, cat: "op", name: "write", start: base, end: base + lat},
				{sid: op*10 + 1, parent: op * 10, cat: "token", name: "acquire", start: base + 10, end: base + 200},
				{sid: 0, parent: op*10 + 1, cat: "rpc", name: "token.acquire", start: base + 20, end: base + 190},
				{sid: 0, parent: op * 10, cat: "cache", name: "sync_wait", start: base + 250, end: base + lat - 50},
			})
		case 2: // background fetch: disk-heavy profile
			emitOpEndOrder(tr, op, []spanSpec{
				{sid: op * 10, parent: 0, cat: "op", name: "fetch", start: base, end: base + 300},
				{sid: 0, parent: op * 10, cat: "nsd", name: "read", start: base + 60, end: base + 290},
			})
		case 3: // background flush: rpc + disk
			emitOpEndOrder(tr, op, []spanSpec{
				{sid: op * 10, parent: 0, cat: "op", name: "flush", start: base, end: base + 350},
				{sid: op*10 + 1, parent: op * 10, cat: "rpc", name: "nsd.write", start: base + 10, end: base + 340},
				{sid: 0, parent: op*10 + 1, cat: "disk", name: "write", start: base + 100, end: base + 300},
			})
		}
	}
}

// TestAggMatchesAnalyze feeds the same trace through batch Analyze and
// incremental Agg and requires counts and totals to match exactly,
// phases to match within per-instance rounding, and quantiles within the
// histogram's bucket resolution.
func TestAggMatchesAnalyze(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	agg := NewAgg()
	tr.Configure(trace.Config{Observer: agg.Observe})
	const nOps = 200
	buildWorkload(tr, nOps)

	batch := Analyze(tr)
	if agg.Open() != 0 {
		t.Fatalf("%d ops still open after drain", agg.Open())
	}
	incr := agg.Report()

	if len(batch.Ops) != len(incr.Ops) {
		t.Fatalf("op-type counts differ: batch %d, incr %d", len(batch.Ops), len(incr.Ops))
	}
	for i, bs := range batch.Ops {
		is := incr.Ops[i]
		if bs.Name != is.Name || bs.Count != is.Count || bs.TotalNs != is.TotalNs {
			t.Errorf("op %s: batch (n=%d tot=%d) vs incr (%s n=%d tot=%d)",
				bs.Name, bs.Count, bs.TotalNs, is.Name, is.Count, is.TotalNs)
			continue
		}
		// Phases: aggregate redistribution rounds once per op type where
		// batch rounds once per instance — allow 1 ns per instance slack.
		tol := int64(bs.Count) + 1
		for _, ph := range Phases {
			d := bs.Phases[ph] - is.Phases[ph]
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Errorf("op %s phase %s: batch %d vs incr %d (tol %d)",
					bs.Name, ph, bs.Phases[ph], is.Phases[ph], tol)
			}
		}
		// Quantiles: histogram buckets are 2^(1/8) apart (~9%).
		for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
			b, v := float64(bs.Quantile(q)), float64(is.Quantile(q))
			if b == 0 && v == 0 {
				continue
			}
			if v < b*0.99 || v > b*1.10 {
				t.Errorf("op %s q%.3f: batch %.0f vs incr %.0f (>9%% off)", bs.Name, q, b, v)
			}
		}
	}
}

// TestAggDiscardMode checks the aggregate-only configuration: observer +
// discard retains nothing yet produces the identical report to observer +
// buffer, and rendering works off the histogram-backed stats.
func TestAggDiscardMode(t *testing.T) {
	t.Parallel()
	run := func(discard bool) (*Agg, *trace.Tracer) {
		tr := trace.New()
		agg := NewAgg()
		tr.Configure(trace.Config{Observer: agg.Observe, Discard: discard})
		buildWorkload(tr, 80)
		return agg, tr
	}
	aggBuf, _ := run(false)
	aggDis, trDis := run(true)
	if trDis.Len() != 0 {
		t.Fatalf("discard tracer retained %d events", trDis.Len())
	}
	a, b := aggBuf.Report(), aggDis.Report()
	sa, sb := a.String(), b.String()
	if sa != sb {
		t.Errorf("reports differ between buffered and discard feeds:\n%s\n---\n%s", sa, sb)
	}
	var opLat strings.Builder
	b.WriteOpLat(&opLat)
	if !strings.Contains(opLat.String(), "p999") {
		t.Errorf("WriteOpLat missing p999 from an Agg report:\n%s", opLat.String())
	}
}

// TestAggRootless checks that ops whose root never arrives are dropped,
// matching Analyze's behaviour for rootless span groups.
func TestAggRootless(t *testing.T) {
	t.Parallel()
	agg := NewAgg()
	agg.Observe(trace.Event{Kind: trace.Span, Op: 9, SID: 1, Parent: 5,
		Cat: "rpc", Name: "orphan", TS: 0, Dur: 10}, nil)
	if agg.Open() != 1 {
		t.Fatalf("open = %d, want 1", agg.Open())
	}
	r := agg.Report()
	if len(r.Ops) != 0 {
		t.Errorf("rootless op leaked into report: %+v", r.Ops)
	}
}
