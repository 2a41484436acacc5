package trace

import "testing"

// The disabled-tracer contract: a recording site on a nil tracer costs
// one branch and zero allocations. The argument arena keeps the variadic
// slice from escaping, so the compiler stack-allocates it at call sites.

func TestDisabledSiteDoesNotAllocate(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		tr.SpanCtx(Ctx{}, 0, "rpc", "nsd.io", "a->b", 0, 100, I("bytes", 4096), S("srv", "nsd0"))
		tr.InstantCtx(Ctx{}, "cache", "hit", "c0", 50, I("block", 7))
	}); n != 0 {
		t.Fatalf("disabled trace sites allocated %.1f times per run, want 0", n)
	}
}

// BenchmarkTraceDisabled measures the cost of a fully-formed Span call
// on a nil tracer — the price every instrumented site pays when tracing
// is off. Expected: ~1 ns/op, 0 allocs.
func BenchmarkTraceDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SpanCtx(Ctx{}, 0, "rpc", "nsd.io", "a->b", int64(i), int64(i)+100, I("bytes", 4096))
	}
}

// BenchmarkTraceDisabledGuarded measures the common instrumented-site
// shape: an Enabled() guard in front of argument construction.
func BenchmarkTraceDisabledGuarded(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			tr.SpanCtx(Ctx{}, 0, "rpc", "nsd.io", "a->b", int64(i), int64(i)+100, I("bytes", 4096))
		}
	}
}

// BenchmarkTraceEnabled measures the recording path (amortized append
// into the event buffer and arg arena).
func BenchmarkTraceEnabled(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SpanCtx(Ctx{Op: 1, Parent: 2}, 0, "rpc", "nsd.io", "a->b", int64(i), int64(i)+100, I("bytes", 4096))
		if tr.Len() >= 1<<20 {
			tr.Reset()
			b.ReportMetric(0, "resets") // keep the buffer bounded
		}
	}
}
