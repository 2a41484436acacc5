package critpath

import (
	"sort"
	"strings"
	"testing"

	"gfs/internal/trace"
)

// spanSpec is one span of a hand-built operation tree.
type spanSpec struct {
	sid, parent int64
	cat, name   string
	start, end  int64
	args        []trace.Arg
}

// emitOp records a hand-built span tree onto tr in end-time order (ties:
// child before parent), which is how a live run records spans — each is
// recorded when it ends, and a root interval ends last. The aggregator
// analyzes an op when its root arrives, so it depends on this ordering.
func emitOp(tr *trace.Tracer, op int64, spans []spanSpec) {
	ordered := append([]spanSpec(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.end != b.end {
			return a.end < b.end
		}
		return a.parent != 0 && b.parent == 0
	})
	for _, s := range ordered {
		tr.SpanCtx(trace.Ctx{Op: op, Parent: s.parent}, s.sid, s.cat, s.name, "t",
			s.start, s.end, s.args...)
	}
}

func phasesOf(t *testing.T, r *Report, name string) map[string]int64 {
	t.Helper()
	for _, s := range r.Ops {
		if s.Name == name {
			return s.Phases
		}
	}
	t.Fatalf("no op type %q in report", name)
	return nil
}

// A single op with one rpc child: residuals land on client and rpc.
func TestLinearChain(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "read", start: 0, end: 100},
		{sid: 2, parent: 1, cat: "rpc", name: "nsd.io", start: 10, end: 90},
		{sid: 0, parent: 2, cat: "nsd", name: "read", start: 30, end: 70},
	})
	r := Analyze(tr)
	ph := phasesOf(t, r, "read")
	if ph[PhaseClient] != 20 { // [0,10) + [90,100)
		t.Errorf("client = %d, want 20", ph[PhaseClient])
	}
	if ph[PhaseRPC] != 40 { // [10,30) + [70,90)
		t.Errorf("rpc = %d, want 40", ph[PhaseRPC])
	}
	if ph[PhaseDisk] != 40 { // [30,70)
		t.Errorf("disk = %d, want 40", ph[PhaseDisk])
	}
	if got := r.Ops[0].Quantile(0.5); got != 100 {
		t.Errorf("p50 = %d, want 100", got)
	}
}

// Fan-out: two overlapping children; the last finisher owns the overlap.
func TestFanOutLastFinisherWins(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "write", start: 0, end: 100},
		// Child A: token wait [5, 60]
		{sid: 0, parent: 1, cat: "token", name: "acquire", start: 5, end: 60},
		// Child B: rpc [40, 95] — finishes last, owns [40, 95].
		{sid: 0, parent: 1, cat: "rpc", name: "nsd.io", start: 40, end: 95},
	})
	r := Analyze(tr)
	ph := phasesOf(t, r, "write")
	// Backward walk: [95,100) client; rpc owns [40,95); token clamped to
	// [5,40); [0,5) client.
	if ph[PhaseClient] != 10 {
		t.Errorf("client = %d, want 10", ph[PhaseClient])
	}
	if ph[PhaseRPC] != 55 {
		t.Errorf("rpc = %d, want 55", ph[PhaseRPC])
	}
	if ph[PhaseToken] != 35 {
		t.Errorf("token = %d, want 35 (clamped, not its full 55)", ph[PhaseToken])
	}
	var total int64
	for _, d := range ph {
		total += d
	}
	if total != 100 {
		t.Errorf("phases sum to %d, want exactly e2e 100", total)
	}
}

// A zero-duration span must neither crash nor consume path time.
func TestZeroDurationSpans(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "read", start: 0, end: 50},
		{sid: 2, parent: 1, cat: "rpc", name: "nsd.io", start: 20, end: 20}, // zero-dur
		{sid: 0, parent: 2, cat: "nsd", name: "read", start: 20, end: 20},   // zero-dur child
	})
	r := Analyze(tr)
	ph := phasesOf(t, r, "read")
	if ph[PhaseClient] != 50 {
		t.Errorf("client = %d, want all 50", ph[PhaseClient])
	}
	// Whole-op zero duration: counts, contributes nothing.
	emitOp(tr, 2, []spanSpec{
		{sid: 3, parent: 0, cat: "op", name: "read", start: 60, end: 60},
	})
	r = Analyze(tr)
	s := phasesOf(t, r, "read")
	_ = s
	for _, st := range r.Ops {
		if st.Name == "read" && st.Count != 2 {
			t.Errorf("count = %d, want 2", st.Count)
		}
	}
}

// Flow spans split into queue/xmit/prop by their arg-carried boundaries.
func TestFlowSubPhaseSplit(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "read", start: 0, end: 100},
		{sid: 0, parent: 1, cat: "flow", name: "xfer", start: 10, end: 90,
			args: []trace.Arg{
				trace.I("bytes", 4096),
				trace.I("queue_ns", 20), // [10,30)
				trace.I("xmit_ns", 10),  // [30,40)
				trace.I("prop_ns", 50),  // [40,90)
			}},
	})
	r := Analyze(tr)
	ph := phasesOf(t, r, "read")
	if ph[PhaseNetQueue] != 20 || ph[PhaseNetXmit] != 10 || ph[PhaseProp] != 50 {
		t.Errorf("queue/xmit/prop = %d/%d/%d, want 20/10/50",
			ph[PhaseNetQueue], ph[PhaseNetXmit], ph[PhaseProp])
	}
}

// Wait spans are redistributed over the background op type's profile.
func TestWaitRedistribution(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	// Background fetch op: 75% disk, 25% rpc.
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "fetch", start: 0, end: 80},
		{sid: 2, parent: 1, cat: "rpc", name: "nsd.io", start: 0, end: 80},
		{sid: 0, parent: 2, cat: "nsd", name: "read", start: 20, end: 80},
	})
	// Foreground read spends 40 ns in fetch_wait.
	emitOp(tr, 2, []spanSpec{
		{sid: 3, parent: 0, cat: "op", name: "read", start: 100, end: 150},
		{sid: 0, parent: 3, cat: "cache", name: "fetch_wait", start: 105, end: 145},
	})
	r := Analyze(tr)
	ph := phasesOf(t, r, "read")
	// fetch profile: rpc 20, disk 60 => read's 40 ns wait splits 10/30.
	if ph[PhaseRPC] != 10 {
		t.Errorf("rpc = %d, want 10", ph[PhaseRPC])
	}
	if ph[PhaseDisk] != 30 {
		t.Errorf("disk = %d, want 30", ph[PhaseDisk])
	}
	if ph[PhaseClient] != 10 { // [100,105) + [145,150)
		t.Errorf("client = %d, want 10", ph[PhaseClient])
	}
	if ph[PhaseCache] != 0 {
		t.Errorf("cache = %d, want 0 (wait fully redistributed)", ph[PhaseCache])
	}
}

// Anything on the critical path beneath a token span — the acquire RPC,
// its flows, server-side revokes — is token machinery, not transport.
func TestTokenSubtreeChargesTokenWait(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "write", start: 0, end: 100},
		{sid: 2, parent: 1, cat: "token", name: "acquire", start: 10, end: 90},
		{sid: 3, parent: 2, cat: "rpc", name: "token.acquire", start: 15, end: 85},
		{sid: 0, parent: 3, cat: "flow", name: "xfer", start: 20, end: 40,
			args: []trace.Arg{trace.I("queue_ns", 5), trace.I("xmit_ns", 5), trace.I("prop_ns", 10)}},
		{sid: 0, parent: 3, cat: "rpc", name: "token.revoke", start: 45, end: 80},
	})
	r := Analyze(tr)
	ph := phasesOf(t, r, "write")
	if ph[PhaseToken] != 80 { // the whole [10,90) token subtree
		t.Errorf("token = %d, want 80", ph[PhaseToken])
	}
	if ph[PhaseRPC] != 0 || ph[PhaseProp] != 0 {
		t.Errorf("rpc/prop = %d/%d, want 0/0", ph[PhaseRPC], ph[PhaseProp])
	}
	if ph[PhaseClient] != 20 {
		t.Errorf("client = %d, want 20", ph[PhaseClient])
	}
}

// With no background ops observed, waits stay in the cache phase.
func TestWaitFallbackToCache(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "write", start: 0, end: 50},
		{sid: 0, parent: 1, cat: "cache", name: "sync_wait", start: 10, end: 40},
	})
	r := Analyze(tr)
	ph := phasesOf(t, r, "write")
	if ph[PhaseCache] != 30 {
		t.Errorf("cache = %d, want 30", ph[PhaseCache])
	}
}

// prefetch_hit and writeback stalls charge directly to their own phases
// — they are the visible costs of the -ra-depth and -wb-max-dirty
// knobs, never redistributed over background profiles.
func TestPipelineStallPhases(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	// A background fetch op exists; the stalls must NOT redistribute
	// over its profile.
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "fetch", start: 0, end: 80},
		{sid: 0, parent: 1, cat: "nsd", name: "read", start: 0, end: 80},
	})
	emitOp(tr, 2, []spanSpec{
		{sid: 2, parent: 0, cat: "op", name: "read", start: 100, end: 160},
		{sid: 0, parent: 2, cat: "cache", name: "prefetch_hit", start: 110, end: 150},
	})
	emitOp(tr, 3, []spanSpec{
		{sid: 3, parent: 0, cat: "op", name: "write", start: 200, end: 260},
		{sid: 0, parent: 3, cat: "cache", name: "writeback", start: 210, end: 240},
	})
	r := Analyze(tr)
	rd := phasesOf(t, r, "read")
	if rd[PhasePrefetch] != 40 {
		t.Errorf("prefetch_hit = %d, want 40", rd[PhasePrefetch])
	}
	if rd[PhaseDisk] != 0 {
		t.Errorf("disk = %d, want 0 (stall must not redistribute)", rd[PhaseDisk])
	}
	wr := phasesOf(t, r, "write")
	if wr[PhaseWriteback] != 30 {
		t.Errorf("writeback = %d, want 30", wr[PhaseWriteback])
	}
}

// Phase totals always conserve e2e time exactly.
func TestConservation(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "read", start: 0, end: 1000},
		{sid: 2, parent: 1, cat: "rpc", name: "a", start: 50, end: 600},
		{sid: 0, parent: 2, cat: "flow", name: "xfer", start: 60, end: 300,
			args: []trace.Arg{trace.I("queue_ns", 100), trace.I("xmit_ns", 40), trace.I("prop_ns", 100)}},
		{sid: 0, parent: 2, cat: "nsd", name: "read", start: 310, end: 580},
		{sid: 0, parent: 1, cat: "token", name: "acquire", start: 20, end: 400},
		{sid: 0, parent: 1, cat: "cache", name: "fetch_wait", start: 600, end: 900},
	})
	// One fetch op so the wait redistributes.
	emitOp(tr, 2, []spanSpec{
		{sid: 3, parent: 0, cat: "op", name: "fetch", start: 0, end: 70},
		{sid: 0, parent: 3, cat: "nsd", name: "read", start: 30, end: 70},
	})
	r := Analyze(tr)
	for _, s := range r.Ops {
		var total int64
		for _, d := range s.Phases {
			total += d
		}
		if total != s.TotalNs {
			t.Errorf("%s: phases sum %d != e2e total %d", s.Name, total, s.TotalNs)
		}
	}
}

// Quantiles use the nearest-rank method on the exact latency set.
func TestQuantiles(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	for i := int64(1); i <= 100; i++ {
		emitOp(tr, i, []spanSpec{
			{sid: i, parent: 0, cat: "op", name: "read", start: 0, end: i * 10},
		})
	}
	r := Analyze(tr)
	s := r.Ops[0]
	if got := s.Quantile(0.50); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := s.Quantile(0.95); got != 950 {
		t.Errorf("p95 = %d, want 950", got)
	}
	if got := s.Quantile(0.99); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
}

// Rendering is byte-deterministic for identical traces.
func TestRenderDeterminism(t *testing.T) {
	t.Parallel()
	build := func() string {
		tr := trace.New()
		emitOp(tr, 1, []spanSpec{
			{sid: 1, parent: 0, cat: "op", name: "read", start: 0, end: 100},
			{sid: 0, parent: 1, cat: "rpc", name: "a", start: 10, end: 90},
		})
		emitOp(tr, 2, []spanSpec{
			{sid: 2, parent: 0, cat: "op", name: "write", start: 0, end: 200},
			{sid: 0, parent: 2, cat: "token", name: "acquire", start: 0, end: 150},
		})
		return Analyze(tr).String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("renders differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "read") || !strings.Contains(a, "write") {
		t.Fatalf("render missing op rows:\n%s", a)
	}
}

// Slowest orders by descending latency with op-ID tiebreak.
func TestSlowest(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	for i := int64(1); i <= 5; i++ {
		emitOp(tr, i, []spanSpec{
			{sid: i, parent: 0, cat: "op", name: "read", start: 0, end: i % 3 * 100},
		})
	}
	r := Analyze(tr)
	top := r.Slowest(tr, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].E2E < top[1].E2E || top[1].E2E < top[2].E2E {
		t.Errorf("not sorted: %d %d %d", top[0].E2E, top[1].E2E, top[2].E2E)
	}
	if top[0].E2E == top[1].E2E && top[0].ID > top[1].ID {
		t.Errorf("tie not broken by op ID: %d then %d", top[0].ID, top[1].ID)
	}
}

// WriteTree renders all spans of an op without crashing on odd shapes.
func TestWriteTree(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 7, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "read", start: 0, end: 100},
		{sid: 2, parent: 1, cat: "rpc", name: "nsd.io", start: 10, end: 90},
		{sid: 0, parent: 99, cat: "flow", name: "orphan", start: 5, end: 6}, // unknown parent
	})
	var b strings.Builder
	WriteTree(&b, tr, 7)
	out := b.String()
	for _, want := range []string{"op/read", "rpc/nsd.io", "flow/orphan"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
}

// Two spans that name each other as parent form a loop with no root;
// WriteTree must render them rather than index an empty root list.
func TestWriteTreeParentCycle(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 3, []spanSpec{
		{sid: 1, parent: 2, cat: "rpc", name: "a", start: 0, end: 10},
		{sid: 2, parent: 1, cat: "rpc", name: "b", start: 2, end: 8},
	})
	var b strings.Builder
	WriteTree(&b, tr, 3)
	out := b.String()
	for _, want := range []string{"rpc/a", "rpc/b"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
	if got := Analyze(tr); len(got.Ops) != 0 {
		t.Errorf("rootless loop was attributed: %+v", got.Ops)
	}
}

// Waits redistribute per instance, with rounding per instance: two reads
// each waiting 2 ns on a fetch profile of rpc 1 / disk 2 get 0 + 1 ns
// plus the 1 ns remainder on disk apiece, where splitting their summed
// 4 ns once would charge rpc 1 ns.
func TestPerInstanceRedistribution(t *testing.T) {
	t.Parallel()
	tr := trace.New()
	emitOp(tr, 1, []spanSpec{
		{sid: 1, parent: 0, cat: "op", name: "fetch", start: 0, end: 3},
		{sid: 0, parent: 1, cat: "nsd", name: "read", start: 1, end: 3},
		{sid: 2, parent: 1, cat: "rpc", name: "nsd.io", start: 0, end: 1},
	})
	for op := int64(2); op <= 3; op++ {
		emitOp(tr, op, []spanSpec{
			{sid: op * 10, parent: 0, cat: "op", name: "read", start: 10, end: 12},
			{sid: 0, parent: op * 10, cat: "cache", name: "fetch_wait", start: 10, end: 12},
		})
	}
	ph := phasesOf(t, Analyze(tr), "read")
	if ph[PhaseDisk] != 4 || ph[PhaseRPC] != 0 {
		t.Errorf("disk/rpc = %d/%d, want 4/0", ph[PhaseDisk], ph[PhaseRPC])
	}
}
