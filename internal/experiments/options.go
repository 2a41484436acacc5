package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// Options is gfssim's command-line surface: Register puts every flag
// onto a FlagSet with its name, default and help text, and the methods
// below turn the parsed values into run configuration.
type Options struct {
	// Engine plane.
	EngineStats bool // print engine telemetry after the runs

	// Trace retention and sampling.
	TraceOut    string        // Chrome trace-event JSON path
	JSONLOut    string        // raw JSONL trace path
	Stats       bool          // mmpmon snapshot + metrics registry
	Interval    time.Duration // periodic live snapshots, simulated time
	Attr        bool          // critical-path attribution per experiment
	JSONLStream string        // stream JSONL as events happen (O(1) memory)
	TraceSample uint64        // keep one traced op in N
	TraceRing   int           // retain only the last N trace events

	// Timeline plane.
	TimelineJSONL    string
	TimelineInterval time.Duration
	TimelineRing     int
	HTTPAddr         string
	HTTPHold         time.Duration

	// Workload shape.
	Nodes string // comma-separated node counts
	Size  string // bytes moved per client node, e.g. "64MiB"

	// Experiment tuning overrides.
	Depth       int
	Block       int64
	FileSize    int64
	CrashAt     time.Duration
	Outage      time.Duration
	Duration    time.Duration
	RADepth     int
	WBDirty     int
	Gather      bool
	WideTok     bool
	TokenShards int

	// Profiling.
	CPUProfile string
	MemProfile string
}

// Register registers every flag onto fs.
func (o *Options) Register(fs *flag.FlagSet) {
	// Engine plane.
	fs.BoolVar(&o.EngineStats, "engine-stats", false,
		"print engine-plane telemetry (events/sec, queue depth, per-kind wall attribution)")

	// Trace retention and sampling.
	fs.StringVar(&o.TraceOut, "trace", "",
		"write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	fs.StringVar(&o.JSONLOut, "jsonl", "",
		"write raw trace events as JSON lines")
	fs.BoolVar(&o.Stats, "stats", false,
		"print an mmpmon-style snapshot and the metrics registry after each run")
	fs.DurationVar(&o.Interval, "interval", 0,
		"also print live mmpmon snapshots every so much simulated time (e.g. 5s)")
	fs.BoolVar(&o.Attr, "attr", false,
		"print a critical-path latency attribution report per experiment")
	fs.StringVar(&o.JSONLStream, "jsonl-stream", "",
		"stream trace events to this JSONL file as they happen (O(1) trace memory)")
	fs.Uint64Var(&o.TraceSample, "trace-sample", 0,
		"keep one traced operation in N (deterministic hash of the op ID; 0/1 keeps all)")
	fs.IntVar(&o.TraceRing, "trace-ring", 0,
		"retain only the last N trace events (ring buffer)")

	// Timeline plane.
	fs.StringVar(&o.TimelineJSONL, "timeline-jsonl", "",
		"stream per-interval resource rate series (timeline windows) to this JSONL file")
	fs.DurationVar(&o.TimelineInterval, "timeline-interval", time.Second,
		"timeline sampling interval in simulated time")
	fs.IntVar(&o.TimelineRing, "timeline-ring", 0,
		"retain only the last N timeline windows per series (bounded memory; enables the timeline plane)")
	fs.StringVar(&o.HTTPAddr, "http", "",
		"serve live timeline telemetry on this address: Prometheus text on /metrics, JSON history on /timeline")
	fs.DurationVar(&o.HTTPHold, "http-hold", 0,
		"keep the -http exporter serving this long (wall time) after the runs finish")

	// Workload shape.
	fs.StringVar(&o.Nodes, "nodes", "",
		"override node counts, comma-separated (e.g. 64,256,1024)")
	fs.StringVar(&o.Size, "size", "",
		"override bytes moved per client node (e.g. 64MiB)")

	// Experiment tuning overrides.
	fs.IntVar(&o.Depth, "depth", 0,
		"sc02 only: override the SANergy pipeline depth (outstanding block requests)")
	fs.Int64Var(&o.Block, "block", 0,
		"sc02 only: override the block size in bytes")
	fs.Int64Var(&o.FileSize, "filesize", 0,
		"sc02 only: override the file size in bytes")
	fs.DurationVar(&o.CrashAt, "crash", 0,
		"failover only: override when the NSD server dies (e.g. 6s)")
	fs.DurationVar(&o.Outage, "outage", 0,
		"failover only: override how long the server stays dead")
	fs.DurationVar(&o.Duration, "duration", 0,
		"failover only: override the total reader run time")
	fs.IntVar(&o.RADepth, "ra-depth", 0,
		"sc03/failover: override the client readahead depth in blocks")
	fs.IntVar(&o.WBDirty, "wb-max-dirty", 0,
		"sc03/failover: override the client write-behind dirty-page limit")
	fs.BoolVar(&o.Gather, "gather", false,
		"production only: stripe-aligned flush gathering, NSD batching and elevator")
	fs.BoolVar(&o.WideTok, "wide-tokens", false,
		"production only: opportunistic wide token grants")
	fs.IntVar(&o.TokenShards, "token-shards", -1,
		"metastorm only: run a single arm with this many token shards (0 = central manager)")

	// Profiling.
	fs.StringVar(&o.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the process to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "",
		"write a pprof heap profile (post-run, after GC) to this file")
}

// Validate checks flag ranges and cross-flag consistency.
func (o *Options) Validate() error {
	for _, d := range []struct {
		flag string
		v    time.Duration
	}{
		{"interval", o.Interval}, {"timeline-interval", o.TimelineInterval},
		{"http-hold", o.HTTPHold}, {"crash", o.CrashAt},
		{"outage", o.Outage}, {"duration", o.Duration},
	} {
		if d.v < 0 {
			return fmt.Errorf("-%s %s is negative", d.flag, d.v)
		}
	}
	for _, n := range []struct {
		flag string
		v    int64
	}{
		{"trace-ring", int64(o.TraceRing)}, {"timeline-ring", int64(o.TimelineRing)},
		{"depth", int64(o.Depth)}, {"block", o.Block}, {"filesize", o.FileSize},
		{"ra-depth", int64(o.RADepth)}, {"wb-max-dirty", int64(o.WBDirty)},
	} {
		if n.v < 0 {
			return fmt.Errorf("-%s %d is negative", n.flag, n.v)
		}
	}
	if o.TokenShards < -1 {
		return fmt.Errorf("-token-shards %d is below -1", o.TokenShards)
	}
	if o.JSONLStream != "" && (o.TraceOut != "" || o.JSONLOut != "" || o.TraceRing > 0) {
		return fmt.Errorf("-jsonl-stream retains nothing; it cannot combine with -trace/-jsonl/-trace-ring")
	}
	return nil
}

// NodeCounts parses the -nodes list, falling back to def when the flag
// was not given.
func (o *Options) NodeCounts(def []int) ([]int, error) {
	if o.Nodes == "" {
		return def, nil
	}
	var out []int
	for _, ns := range strings.Split(o.Nodes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(ns))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad node count %q", ns)
		}
		out = append(out, n)
	}
	return out, nil
}

// SizeBytes parses -size; zero means the flag was not given. A given
// size must be positive.
func (o *Options) SizeBytes() (units.Bytes, error) {
	if o.Size == "" {
		return 0, nil
	}
	n, err := units.ParseBytes(o.Size)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("%q is not positive", o.Size)
	}
	return n, nil
}

// NeedTrace reports whether any requested output requires a tracer.
func (o *Options) NeedTrace() bool {
	return o.TraceOut != "" || o.JSONLOut != "" || o.Attr ||
		o.JSONLStream != "" || o.TraceSample > 1 || o.TraceRing > 0
}

// NeedTimeline reports whether any requested output requires the
// timeline plane.
func (o *Options) NeedTimeline() bool {
	return o.TimelineJSONL != "" || o.HTTPAddr != "" || o.TimelineRing > 0
}

// NeedObs reports whether any observability at all was requested.
func (o *Options) NeedObs() bool {
	return o.NeedTrace() || o.NeedTimeline() || o.Stats || o.Interval > 0 || o.EngineStats
}

// ObsConfig translates the parsed flags into the observability
// configuration, with out receiving periodic snapshots. Writers that
// need opened files (-jsonl-stream, -timeline-jsonl) and the HTTP
// exporter are left nil for the caller to fill in.
func (o *Options) ObsConfig(out io.Writer) ObsConfig {
	cfg := ObsConfig{
		Trace:       o.NeedTrace(),
		Stats:       o.Stats || o.Interval > 0,
		Interval:    sim.Time(o.Interval / time.Nanosecond),
		Out:         out,
		Engine:      o.EngineStats,
		SampleOneIn: o.TraceSample,
		Ring:        o.TraceRing,
		Discard:     o.TraceOut == "" && o.JSONLOut == "",
	}
	if cfg.Engine && cfg.Trace {
		// One deterministic engine/sample instant every 4096 events:
		// enough timeline for gfsprof -engine, negligible trace volume.
		cfg.EngineTraceEvery = 4096
	}
	if o.NeedTimeline() {
		cfg.Timeline = true
		cfg.TimelineInterval = sim.Time(o.TimelineInterval / time.Nanosecond)
		cfg.TimelineRing = o.TimelineRing
	}
	return cfg
}

// StartCPUProfile begins the CPU profile when -cpuprofile was given.
// The returned stop function is safe to defer unconditionally.
func (o *Options) StartCPUProfile() (func(), error) {
	if o.CPUProfile == "" {
		return func() {}, nil
	}
	f, err := os.Create(o.CPUProfile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteMemProfile writes the post-run heap profile when -memprofile was
// given, after a full GC so the profile shows live retention.
func (o *Options) WriteMemProfile() error {
	if o.MemProfile == "" {
		return nil
	}
	runtime.GC()
	f, err := os.Create(o.MemProfile)
	if err != nil {
		return err
	}
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SolveToleranceValue returns 0.
//
// Deprecated: the rate solver is exact-only and has no tolerance.
func SolveToleranceValue() float64 { return 0 }

// NewSim builds an unobserved simulator.
//
// Deprecated: use Env.NewSim; the zero Env gives the same simulator.
func NewSim() *sim.Sim { return Env{}.NewSim() }
