package experiments

import (
	"bytes"
	"strings"
	"testing"

	"gfs/internal/core"
	"gfs/internal/critpath"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// opsWorkload runs a single-site workload with enough operations for
// quantile comparisons: a 32 MiB seed written in 1 MiB calls, then a
// block-by-block cold read from a second client (128 read ops).
func opsWorkload(t *testing.T, env Env) {
	t.Helper()
	s := env.NewSim()
	nw := env.newEthernetNet(s)
	site := env.NewSite(s, nw, "alpha")
	site.BuildFS(FSOptions{
		Name: "gpfs0", BlockSize: 256 * units.KiB,
		Servers: 2, ServerEth: units.Gbps,
		StoreRate: 200 * units.MBps, StoreCap: 64 * units.GiB, StoreStreams: 2,
	})
	writer := site.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]
	reader := site.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]
	env.run(s, func(p *sim.Proc) error {
		mw, err := writer.MountLocal(p, site.FS)
		if err != nil {
			return err
		}
		if err := seedFile(p, mw, "/data", 32*units.MiB, units.MiB); err != nil {
			return err
		}
		mr, err := reader.MountLocal(p, site.FS)
		if err != nil {
			return err
		}
		f, err := mr.Open(p, "/data")
		if err != nil {
			return err
		}
		for off := units.Bytes(0); off < 32*units.MiB; off += 256 * units.KiB {
			if err := f.ReadAt(p, off, 256*units.KiB); err != nil {
				return err
			}
		}
		return f.Close(p)
	})
}

// TestSampledExperimentDeterminism: the same seeded experiment traced
// with deterministic 1-in-4 op sampling twice must produce byte-identical
// JSONL — the sampler keys on op IDs, never on wall clock or map order —
// and the sampled export must be a strict line-subset of the full one.
func TestSampledExperimentDeterminism(t *testing.T) {
	t.Parallel()
	runSampled := func(every uint64) []byte {
		o := NewObs(ObsConfig{Trace: true, SampleOneIn: every})
		traceWorkload(t, Env{Obs: o})
		var b bytes.Buffer
		if err := o.Tracer.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	s1 := runSampled(4)
	s2 := runSampled(4)
	full := runSampled(1)
	if !bytes.Equal(s1, s2) {
		t.Error("sampled JSONL differs between identical runs")
	}
	if len(s1) == 0 || len(s1) >= len(full) {
		t.Fatalf("sampled export %d bytes vs full %d — sampling dropped nothing", len(s1), len(full))
	}
	fullLines := map[string]bool{}
	for _, ln := range strings.Split(string(full), "\n") {
		fullLines[ln] = true
	}
	for _, ln := range strings.Split(string(s1), "\n") {
		if ln != "" && !fullLines[ln] {
			t.Fatalf("sampled line not present in full export: %s", ln)
		}
	}
}

// TestSampledAttributionTolerance: critpath analysis of a 1-in-4 sampled
// trace must agree with the unsampled analysis — sampled op trees are
// complete, so per-instance latencies are exact and only the population
// is thinned. Quantiles over the thinned population must stay within a
// modest relative band (both runs are deterministic, so this bound is a
// regression gate, not a statistical hope).
func TestSampledAttributionTolerance(t *testing.T) {
	t.Parallel()
	analyze := func(every uint64) *critpath.Report {
		o := NewObs(ObsConfig{Trace: true, SampleOneIn: every})
		opsWorkload(t, Env{Obs: o})
		return critpath.Analyze(o.Tracer)
	}
	full := analyze(1)
	sampled := analyze(4)

	checked := 0
	for _, fs := range full.Ops {
		if fs.Count < 32 {
			continue // too few instances to quantile meaningfully
		}
		var ss *critpath.OpStats
		for i := range sampled.Ops {
			if sampled.Ops[i].Name == fs.Name {
				ss = sampled.Ops[i]
			}
		}
		if ss == nil {
			t.Errorf("op %s (n=%d) missing entirely from sampled analysis", fs.Name, fs.Count)
			continue
		}
		// 1-in-4 hash sampling of n ops is binomial, not exact: demand
		// presence and an order-of-magnitude-correct population only.
		if ss.Count < fs.Count/16 || ss.Count > fs.Count {
			t.Errorf("op %s: sampled count %d implausible for 1-in-4 of %d", fs.Name, ss.Count, fs.Count)
		}
		for _, q := range []float64{0.50, 0.95} {
			fv, sv := float64(fs.Quantile(q)), float64(ss.Quantile(q))
			if fv == 0 {
				continue
			}
			if sv < fv*0.5 || sv > fv*2.0 {
				t.Errorf("op %s q%.2f: sampled %.0fns vs full %.0fns (outside 2x band)",
					fs.Name, q, sv, fv)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no op type had enough instances to compare quantiles")
	}
}

// TestStreamedExperimentMatchesBuffered: streaming a real experiment's
// events to a writer as they happen must yield byte-for-byte the JSONL a
// buffered tracer exports afterwards, while retaining no events.
func TestStreamedExperimentMatchesBuffered(t *testing.T) {
	t.Parallel()
	var streamed bytes.Buffer
	o := NewObs(ObsConfig{Trace: true, Stream: &streamed})
	traceWorkload(t, Env{Obs: o})
	if err := o.Tracer.FlushStream(); err != nil {
		t.Fatal(err)
	}
	if n := o.Tracer.Len(); n != 0 {
		t.Fatalf("streaming tracer retained %d events", n)
	}

	o2 := NewObs(ObsConfig{Trace: true})
	traceWorkload(t, Env{Obs: o2})
	var buffered bytes.Buffer
	if err := o2.Tracer.WriteJSONL(&buffered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		t.Errorf("streamed JSONL (%d bytes) differs from buffered export (%d bytes)",
			streamed.Len(), buffered.Len())
	}
}

// TestEngineObsExperiment: engine probes attached through the
// observability layer capture one window per simulator run, the merged
// snapshot is sane, the deterministic engine/sample instants make traced
// runs byte-reproducible, and the probe does not perturb virtual time.
func TestEngineObsExperiment(t *testing.T) {
	t.Parallel()
	runEngine := func() ([]byte, sim.EngineSnapshot) {
		o := NewObs(ObsConfig{Trace: true, Engine: true, EngineTraceEvery: 512})
		traceWorkload(t, Env{Obs: o})
		var b bytes.Buffer
		if err := o.Tracer.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if len(o.engineWindows()) == 0 {
			t.Fatal("no engine windows captured")
		}
		return b.Bytes(), o.EngineSnapshot()
	}
	j1, es1 := runEngine()
	j2, es2 := runEngine()
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL with engine sampling differs between identical runs")
	}
	if !bytes.Contains(j1, []byte(`"cat":"engine"`)) {
		t.Error("no engine/sample instants in trace")
	}
	if es1.Events == 0 || es1.SimNs == 0 || len(es1.Kinds) == 0 {
		t.Fatalf("empty engine snapshot: %+v", es1)
	}
	if es1.Events != es2.Events || es1.SimNs != es2.SimNs {
		t.Errorf("engine event/sim-time counts differ between identical runs: %d/%d vs %d/%d",
			es1.Events, es1.SimNs, es2.Events, es2.SimNs)
	}
	var kindSum uint64
	for _, k := range es1.Kinds {
		kindSum += k.Count
	}
	if kindSum != es1.Events {
		t.Errorf("per-kind counts sum to %d, want %d", kindSum, es1.Events)
	}

	// A probe-free run must see identical virtual-time products: the
	// probe observes the engine, it must not steer it.
	o := NewObs(ObsConfig{Trace: true})
	traceWorkload(t, Env{Obs: o})
	var plain bytes.Buffer
	if err := o.Tracer.WriteJSONL(&plain); err != nil {
		t.Fatal(err)
	}
	stripped := 0
	for _, ln := range bytes.Split(j1, []byte("\n")) {
		if bytes.Contains(ln, []byte(`"cat":"engine"`)) {
			stripped++
		}
	}
	if got := bytes.Count(j1, []byte("\n")) - stripped; got != bytes.Count(plain.Bytes(), []byte("\n")) {
		t.Errorf("probed run has %d non-engine events, probe-free run has %d",
			got, bytes.Count(plain.Bytes(), []byte("\n")))
	}
}

// TestAggExperimentMatchesBatch: the aggregate the live observer builds
// during a real experiment must render byte for byte what a replay of
// the buffered trace of the same run renders, and a discarding run must
// retain nothing yet render the same.
func TestAggExperimentMatchesBatch(t *testing.T) {
	t.Parallel()
	render := func(r *critpath.Report) string {
		var b strings.Builder
		r.WriteTable(&b)
		r.WriteOpLat(&b)
		return b.String()
	}
	ob := NewObs(ObsConfig{Trace: true})
	opsWorkload(t, Env{Obs: ob})
	replay := render(critpath.Analyze(ob.Tracer))
	if !strings.Contains(replay, "mmpmon op_lat read") {
		t.Fatalf("replay attributed no reads:\n%s", replay)
	}
	if live := render(ob.Agg.Report()); live != replay {
		t.Errorf("live report differs from replay:\n%s\n---\n%s", live, replay)
	}

	od := NewObs(ObsConfig{Trace: true, Discard: true})
	opsWorkload(t, Env{Obs: od})
	if n := od.Tracer.Len(); n != 0 {
		t.Fatalf("discarding tracer retained %d events", n)
	}
	if live := render(od.Agg.Report()); live != replay {
		t.Errorf("discarding run's report differs from replay:\n%s\n---\n%s", live, replay)
	}
}
