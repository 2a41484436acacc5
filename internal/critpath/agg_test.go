package critpath

import (
	"strings"
	"testing"

	"gfs/internal/trace"
)

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
			emitOp(tr, op, []spanSpec{
				{sid: op * 10, parent: 0, cat: "op", name: "read", start: base, end: base + lat},
				{sid: op*10 + 1, parent: op * 10, cat: "rpc", name: "nsd.io", start: base + 20, end: base + lat - 20},
				{sid: 0, parent: op*10 + 1, cat: "flow", name: "xfer", start: base + 30, end: base + 130,
					args: []trace.Arg{trace.I("queue_ns", 20), trace.I("xmit_ns", 50), trace.I("prop_ns", 30)}},
				{sid: 0, parent: op*10 + 1, cat: "nsd", name: "read", start: base + 140, end: base + lat - 40},
			})
		case 1: // write: token subtree + sync wait
			lat := int64(600 + i%5*80)
			emitOp(tr, op, []spanSpec{
				{sid: op * 10, parent: 0, cat: "op", name: "write", start: base, end: base + lat},
				{sid: op*10 + 1, parent: op * 10, cat: "token", name: "acquire", start: base + 10, end: base + 200},
				{sid: 0, parent: op*10 + 1, cat: "rpc", name: "token.acquire", start: base + 20, end: base + 190},
				{sid: 0, parent: op * 10, cat: "cache", name: "sync_wait", start: base + 250, end: base + lat - 50},
			})
		case 2: // background fetch: disk-heavy profile
			emitOp(tr, op, []spanSpec{
				{sid: op * 10, parent: 0, cat: "op", name: "fetch", start: base, end: base + 300},
				{sid: 0, parent: op * 10, cat: "nsd", name: "read", start: base + 60, end: base + 290},
			})
		case 3: // background flush: rpc + disk
			emitOp(tr, op, []spanSpec{
				{sid: op * 10, parent: 0, cat: "op", name: "flush", start: base, end: base + 350},
				{sid: op*10 + 1, parent: op * 10, cat: "rpc", name: "nsd.write", start: base + 10, end: base + 340},
				{sid: 0, parent: op*10 + 1, cat: "disk", name: "write", start: base + 100, end: base + 300},
			})
		}
	}
}

// TestAggMatchesAnalyze feeds the same trace to a live Agg and to
// Analyze's replay of the retained events and requires identical
// reports: counts, totals, every phase and every quantile.
func TestAggMatchesAnalyze(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	agg := NewAgg()
	tr.Configure(trace.Config{Observer: agg.Observe})
	const nOps = 200
	buildWorkload(tr, nOps)

	replay := Analyze(tr)
	if agg.Open() != 0 {
		t.Fatalf("%d ops still open after drain", agg.Open())
	}
	live := agg.Report()

	if len(replay.Ops) != 4 || len(replay.Ops) != len(live.Ops) {
		t.Fatalf("op-type counts: replay %d, live %d, want 4", len(replay.Ops), len(live.Ops))
	}
	for i, rs := range replay.Ops {
		ls := live.Ops[i]
		if rs.Name != ls.Name || rs.Count != ls.Count || rs.TotalNs != ls.TotalNs ||
			rs.Start != ls.Start || rs.End != ls.End {
			t.Errorf("op %s: replay %+v vs live %+v", rs.Name, rs, ls)
			continue
		}
		for _, ph := range Phases {
			if rs.Phases[ph] != ls.Phases[ph] {
				t.Errorf("op %s phase %s: replay %d vs live %d", rs.Name, ph, rs.Phases[ph], ls.Phases[ph])
			}
		}
		for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
			if rq, lq := rs.Quantile(q), ls.Quantile(q); rq != lq {
				t.Errorf("op %s q%.3f: replay %d vs live %d", rs.Name, q, rq, lq)
			}
		}
	}
	if replay.String() != live.String() {
		t.Errorf("tables differ:\n%s\n---\n%s", replay, live)
	}
}

// TestAggDiscardMode checks the aggregate-only configuration: observer +
// discard retains nothing yet produces the identical report to observer +
// buffer, and rendering works off the aggregated stats.
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

// TestAggRootless checks that ops whose root never arrives stay open and
// out of the report.
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
