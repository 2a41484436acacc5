package experiments

import (
	"bufio"
	"fmt"
	"io"

	"gfs/internal/core"
	"gfs/internal/critpath"
	"gfs/internal/metrics"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/timeline"
	"gfs/internal/trace"
)

// Env is the run environment an experiment is built in: the
// observability sinks. Experiments build their own simulators inside
// Run, so the caller cannot attach tracers directly; instead every
// simulator, network and cluster a run creates through its Env is wired
// up as it is born. The zero Env is a plain, unobserved run and retains
// nothing. Runs with different Envs share no state and may execute
// concurrently; runs that share one Obs must not.
type Env struct {
	// Obs collects traces, metrics, engine telemetry and timelines; nil
	// means observability is off and every instrumentation site degrades
	// to a branch or two.
	Obs *Obs
}

// ObsConfig selects what the observability layer collects while
// experiments run.
type ObsConfig struct {
	// Trace collects virtual-time events for the Chrome/JSONL exporters
	// and attributes every operation's latency as it completes (Obs.Agg).
	Trace bool
	// Stats attaches a metrics registry and enables mmpmon snapshots.
	Stats bool
	// Interval emits a live mmpmon snapshot to Out every so much
	// *simulated* time. Zero means no periodic snapshots (the caller can
	// still take a final one with Snapshot).
	Interval sim.Time
	// Out receives periodic snapshots; nil discards them.
	Out io.Writer

	// Engine attaches a sim.EngineProbe to every simulator: events/sec,
	// queue depth, per-kind wall attribution, allocations per event.
	Engine bool
	// EngineTraceEvery, with Engine and Trace on, emits one deterministic
	// engine/sample instant into the trace every so many fired events.
	EngineTraceEvery uint64

	// Bounded-memory tracing (all require Trace):
	// SampleOneIn keeps one operation in n via a deterministic hash of
	// the op ID (n <= 1 keeps everything).
	SampleOneIn uint64
	// Stream writes each kept event as a JSONL line immediately and
	// retains nothing, so trace memory stays O(1) in run length.
	Stream io.Writer
	// Ring retains only the last n events (0 = unbounded buffer).
	Ring int
	// Discard retains no events: the aggregator still attributes every
	// operation, but the tracer keeps nothing for the exporters (Stream
	// and Ring take precedence).
	Discard bool

	// Timeline attaches a timeline.Collector to every simulator: per-
	// interval rates for every resource (NSD servers, links, clients,
	// token managers, the engine itself), sampled at TimelineInterval
	// (default one simulated second). With Stats snapshots on, each
	// snapshot additionally carries "mmpmon rate" lines from the latest
	// window.
	Timeline         bool
	TimelineInterval sim.Time
	// TimelineRing bounds every series to its last n windows, making
	// timeline memory independent of run length (0 = unbounded).
	TimelineRing int
	// TimelineStream writes one JSONL line per tick per simulator to
	// this writer, retaining nothing beyond the ring. Runs in a sweep
	// append in execution order; lines are byte-deterministic.
	TimelineStream io.Writer
	// TimelineExport publishes every window to an HTTP exporter.
	TimelineExport *timeline.Exporter
	// TimelineOnTick is invoked after each window closes — the live
	// terminal dashboard hook (cmd/gfstop).
	TimelineOnTick func(*timeline.Collector, timeline.Snapshot)
}

// Obs is the live state of one observed run or sweep: the shared tracer
// and histogram registry plus every simulator, network and cluster
// created through an Env carrying it.
type Obs struct {
	cfg      ObsConfig
	Tracer   *trace.Tracer
	Registry *metrics.Registry
	// Agg attributes every traced operation's latency (cfg.Trace only).
	Agg      *critpath.Agg
	sims     []*sim.Sim
	nets     []*netsim.Network
	clusters []*core.Cluster

	// Engine telemetry: one probe per simulator, and one finished window
	// per run — captured the moment a run's event loop drains, so a
	// window's wall clock is not polluted by later runs in the same sweep.
	probes      []*sim.EngineProbe
	engineSnaps []sim.EngineSnapshot
	snapped     map[*sim.EngineProbe]bool

	// Timeline collectors: one per simulator, in creation order, plus a
	// shared buffered stream writer when cfg.TimelineStream is set (one
	// buffer across collectors keeps a sweep's lines in tick order).
	tls      []*timeline.Collector
	tlBySim  map[*sim.Sim]*timeline.Collector
	tlStream *bufio.Writer
}

// NewObs builds the observability state for cfg. Pass it to runs in an
// Env; its Tracer, Registry and Snapshot then carry the results.
func NewObs(cfg ObsConfig) *Obs {
	o := &Obs{cfg: cfg, snapped: map[*sim.EngineProbe]bool{},
		tlBySim: map[*sim.Sim]*timeline.Collector{}}
	if cfg.TimelineStream != nil {
		o.tlStream = bufio.NewWriterSize(cfg.TimelineStream, 1<<16)
	}
	if cfg.Trace {
		// trace.Config resolves retention precedence (Stream > Ring >
		// Discard > buffer) exactly as the CLI always did, so the whole
		// bounded-memory surface maps onto one declarative struct.
		o.Agg = critpath.NewAgg()
		o.Tracer = trace.New()
		o.Tracer.Configure(trace.Config{
			SampleOneIn: cfg.SampleOneIn,
			Stream:      cfg.Stream,
			Ring:        cfg.Ring,
			Discard:     cfg.Discard,
			Observer:    o.Agg.Observe,
		})
	}
	if cfg.Stats {
		o.Registry = metrics.NewRegistry()
	}
	return o
}

// NewSim builds a simulator and, when observability is on, attaches the
// tracer, engine probe, timeline and snapshot tick. Experiments and
// benchmarks that build their own sites create simulators through this.
func (e Env) NewSim() *sim.Sim {
	s := sim.New()
	if e.Obs != nil {
		e.Obs.attachSim(s)
	}
	return s
}

// newNet builds a plain network on s and, when observability is on,
// attaches the histogram registry and registers it for WriteCounters.
func (e Env) newNet(s *sim.Sim) *netsim.Network {
	nw := netsim.New(s)
	if e.Obs != nil {
		nw.Metrics = e.Obs.Registry
		e.Obs.nets = append(e.Obs.nets, nw)
	}
	return nw
}

func (o *Obs) attachSim(s *sim.Sim) {
	o.sims = append(o.sims, s)
	if o.Tracer != nil {
		s.SetTracer(o.Tracer)
	}
	if o.cfg.Engine {
		p := sim.NewEngineProbe()
		if o.Tracer != nil {
			p.TraceSampleEvery = o.cfg.EngineTraceEvery
		}
		s.SetEngineProbe(p)
		o.probes = append(o.probes, p)
	}
	// The timeline collector attaches before the snapshot tick so that
	// when both intervals coincide the window closes first and the
	// snapshot's "mmpmon rate" lines show the window just ended.
	if o.cfg.Timeline {
		o.attachTimeline(s)
	}
	if o.cfg.Stats && o.cfg.Interval > 0 && o.cfg.Out != nil {
		var tick func()
		tick = func() {
			o.snapshotSim(o.cfg.Out, s)
			// Daemon ticks never keep Run from draining.
			s.PostDaemon(o.cfg.Interval, tick)
		}
		s.PostDaemon(o.cfg.Interval, tick)
	}
}

// attachTimeline builds one collector for s and wires the whole-stack
// source: engine event rate, per-link bytes and saturation, per-NSD
// server MB/s and queue depth, per-NSD store utilization, per-client op
// and cache-hit rates, and token-manager grant/revoke/wait-queue depth.
// The source enumerates the observed clusters at every tick, so objects
// created mid-run join the timeline the window they appear.
func (o *Obs) attachTimeline(s *sim.Sim) *timeline.Collector {
	iv := o.cfg.TimelineInterval
	if iv <= 0 {
		iv = sim.Second
	}
	tl := timeline.New(s, iv)
	tl.Label = fmt.Sprintf("sim%d", len(o.sims)-1)
	if o.cfg.TimelineRing > 0 {
		tl.SetRing(o.cfg.TimelineRing)
	}
	if o.tlStream != nil {
		tl.SetStream(o.tlStream)
	}
	tl.AddSource(func(tk *timeline.Tick) { o.sampleSim(s, tk) })
	if o.cfg.TimelineExport != nil {
		o.cfg.TimelineExport.Attach(tl)
	}
	if o.cfg.TimelineOnTick != nil {
		tl.OnTick(o.cfg.TimelineOnTick)
	}
	o.tls = append(o.tls, tl)
	o.tlBySim[s] = tl
	return tl
}

// sampleSim emits one window's worth of whole-stack instruments for the
// clusters living on s. Enumeration order is deterministic: clusters in
// registration order, filesystems sorted by name, clients (each under its
// home cluster), servers, NSDs and links in creation order — and the
// collector re-sorts series by name anyway before recording.
func (o *Obs) sampleSim(s *sim.Sim, tk *timeline.Tick) {
	tk.Rate("engine.events_per_s", "ev/s", float64(s.EventsFired()))
	seenNet := map[*netsim.Network]bool{}
	for _, c := range o.clusters {
		if c.Sim != s {
			continue
		}
		if c.Net != nil && !seenNet[c.Net] {
			seenNet[c.Net] = true
			for _, l := range c.Net.Links() {
				mbps := tk.Rate("link."+l.Name()+".MBps", "MB/s",
					float64(l.BytesDelivered())/1e6)
				if capMBps := float64(l.Capacity()) / 8 / 1e6; capMBps > 0 {
					tk.Gauge("link."+l.Name()+".util", "frac", mbps/capMBps)
				}
			}
		}
		for _, fs := range c.Filesystems() {
			st := fs.Stats()
			tk.Rate("token."+fs.Name+".grants_per_s", "ops/s", float64(st.TokenGrants))
			tk.Rate("token."+fs.Name+".revokes_per_s", "ops/s", float64(st.TokenRevokes))
			tk.Gauge("token."+fs.Name+".waiting", "reqs", float64(st.Waiting))
			tk.Rate("meta."+fs.Name+".ops_per_s", "ops/s", float64(st.MetaOps))
			for k, sh := range st.Shards {
				pre := fmt.Sprintf("token.%s.s%d.", fs.Name, k)
				tk.Rate(pre+"grants_per_s", "ops/s", float64(sh.Grants))
				tk.Rate(pre+"revokes_per_s", "ops/s", float64(sh.Revokes))
				tk.Rate(pre+"escalations_per_s", "ops/s", float64(sh.Escalations))
				tk.Rate(pre+"steals_per_s", "ops/s", float64(sh.Steals))
				tk.Gauge(pre+"waiting", "reqs", float64(sh.Waiting))
			}
			for _, srv := range fs.Servers() {
				sst := srv.Stats()
				tk.Rate("nsd."+srv.Name+".read_MBps", "MB/s", float64(sst.BytesRead)/1e6)
				tk.Rate("nsd."+srv.Name+".write_MBps", "MB/s", float64(sst.BytesWritten)/1e6)
				tk.Gauge("nsd."+srv.Name+".inflight", "rpcs", float64(srv.EP.InFlight()))
			}
			for _, n := range fs.NSDList() {
				// Cumulative busy time differenced per window is
				// utilization — the delta-to-rate machinery applies as-is.
				if bt, ok := n.Store.(core.BusyTimer); ok {
					tk.Rate("nsdstore."+n.Name+".util", "frac", bt.BusyTime().Seconds())
				}
				if n.QueueDepth() > 0 || tk.Seen("nsdstore."+n.Name+".qdepth") {
					tk.Gauge("nsdstore."+n.Name+".qdepth", "reqs", float64(n.QueueDepth()))
				}
			}
		}
		for _, cl := range c.Members() {
			st := cl.Stats()
			tk.Rate("client."+cl.ID()+".ops_per_s", "ops/s", float64(st.Reads+st.Writes))
			tk.Ratio("client."+cl.ID()+".hit_rate", "frac",
				float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
		}
	}
}

// Timelines returns every timeline collector created so far, one per
// simulator, in creation order.
func (o *Obs) Timelines() []*timeline.Collector { return o.tls }

// FlushTimeline flushes the shared timeline stream and returns the
// first error any collector hit while streaming.
func (o *Obs) FlushTimeline() error {
	for _, tl := range o.tls {
		if err := tl.StreamErr(); err != nil {
			return err
		}
	}
	if o.tlStream != nil {
		return o.tlStream.Flush()
	}
	return nil
}

// captureEngine freezes the engine window of s. Env.run calls it the
// moment a simulator's event loop drains, while its wall clock is still
// honest (a snapshot taken after later runs would charge their wall time
// to this window too).
func (o *Obs) captureEngine(s *sim.Sim) {
	p := s.EngineProbe()
	if p == nil || o.snapped[p] {
		return
	}
	o.snapped[p] = true
	o.engineSnaps = append(o.engineSnaps, p.Snapshot())
}

// engineWindows returns every finished engine window so far — one per
// simulator run with a probe attached. Probes whose runs did not go
// through Env.run are snapshotted now.
func (o *Obs) engineWindows() []sim.EngineSnapshot {
	for _, s := range o.sims {
		o.captureEngine(s)
	}
	return o.engineSnaps
}

// EngineSnapshot merges every engine window into one summary.
func (o *Obs) EngineSnapshot() sim.EngineSnapshot {
	return sim.MergeEngineSnapshots(o.engineWindows())
}

// SolverStats merges the flow-solver counters across every observed
// network. Clusters sharing a network (multi-site sims) are counted
// once; enumeration order is the deterministic cluster registry.
func (o *Obs) SolverStats() netsim.SolverStats {
	var st netsim.SolverStats
	seen := map[*netsim.Network]bool{}
	for _, c := range o.clusters {
		if c.Net == nil || seen[c.Net] {
			continue
		}
		seen[c.Net] = true
		s := c.Net.SolverStats()
		st.Add(s)
	}
	return st
}

// WriteSolverReport prints the rate solver's work: how many solves ran,
// how many conns they re-solved and how many of those changed rate, and
// the log2 histogram of solved frontier sizes. Silent when no network
// ever solved (pure SAN/engine benchmarks).
func (o *Obs) WriteSolverReport(w io.Writer) {
	st := o.SolverStats()
	if st.Solves() == 0 {
		return
	}
	fmt.Fprintf(w, "rate solves: %d, re-solved %d conns, %d rate changes\n",
		st.FullSolves, st.RegionConns, st.RateChanges)
	fmt.Fprintf(w, "  frontier conns per solve:")
	for i, n := range st.FrontierHist {
		if n == 0 {
			continue
		}
		lo := 0
		if i > 0 {
			lo = 1 << (i - 1)
		}
		fmt.Fprintf(w, " [%d+]=%d", lo, n)
	}
	fmt.Fprintln(w)
}

// snapshotSim writes one mmpmon snapshot for the clusters living on s.
// With tracing on, the counters are followed by an op_lat section —
// per-op-type latency quantiles with critical-path phase percentages of
// the operations attributed so far.
func (o *Obs) snapshotSim(w io.Writer, s *sim.Sim) {
	var cs []*core.Cluster
	for _, c := range o.clusters {
		if c.Sim == s {
			cs = append(cs, c)
		}
	}
	core.WriteMmpmon(w, s, cs)
	if tl := o.tlBySim[s]; tl != nil && tl.Ticks() > 0 {
		core.WriteMmpmonRates(w, tl.Snapshot())
	}
	core.WriteMmpmonHists(w, o.Registry)
	if o.Agg != nil {
		o.Agg.Report().WriteOpLat(w)
	}
}

// WriteCounters writes the counter block of gfssim -stats: every field
// tagged counter:"<name>" on the observed networks, clusters,
// filesystems, NSD servers and clients, summed by name (core.Counters),
// then the rpc.in_flight gauge: in flight now and the highest peak.
func (o *Obs) WriteCounters(w io.Writer) {
	sum := core.Counters{}
	var inFlight, peak int
	for _, nw := range o.nets {
		st := nw.Stats()
		sum.Add(st)
		inFlight += st.InFlight
		peak = max(peak, st.PeakInFlight)
	}
	for _, c := range o.clusters {
		sum.Add(c.Stats())
		for _, fs := range c.Filesystems() {
			sum.Add(fs.Stats())
			for _, srv := range fs.Servers() {
				sum.Add(srv.Stats())
			}
		}
		for _, cl := range c.Members() {
			sum.Add(cl.Stats())
		}
	}
	sum.Write(w)
	if peak > 0 {
		fmt.Fprintf(w, "gauge   %-32s %d (peak %d)\n", "rpc.in_flight", inFlight, peak)
	}
}

// Snapshot writes a final mmpmon snapshot for every simulator observed.
func (o *Obs) Snapshot(w io.Writer) {
	for _, s := range o.sims {
		o.snapshotSim(w, s)
	}
}
