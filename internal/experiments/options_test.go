package experiments

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"
)

// registerAll builds gfssim's CLI surface on one FlagSet.
// flag.FlagSet panics on a duplicate name, so this is also the collision
// check.
func registerAll(o *Options) *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.Register(fs)
	return fs
}

// TestFlagSurface pins the exact flag names Register puts on a FlagSet:
// renaming, adding or dropping a flag must update this test.
func TestFlagSurface(t *testing.T) {
	t.Parallel()
	want := []string{
		"attr", "block", "cpuprofile", "crash", "depth", "duration",
		"engine-stats", "filesize", "gather", "http", "http-hold",
		"interval", "jsonl", "jsonl-stream", "memprofile", "nodes",
		"outage", "ra-depth", "size", "stats", "timeline-interval",
		"timeline-jsonl", "timeline-ring", "token-shards", "trace",
		"trace-ring", "trace-sample", "wb-max-dirty", "wide-tokens",
	}
	var o Options
	fs := registerAll(&o)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Register registers %v, want %v", got, want)
	}
}

func TestOptionsParsing(t *testing.T) {
	t.Parallel()
	var o Options
	fs := registerAll(&o)
	err := fs.Parse([]string{
		"-engine-stats",
		"-nodes", "64, 256,1024", "-size", "64MiB",
		"-trace-sample", "8", "-interval", "5s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.EngineStats || o.TraceSample != 8 {
		t.Fatalf("parsed %+v", o)
	}
	counts, err := o.NodeCounts(nil)
	if err != nil || !reflect.DeepEqual(counts, []int{64, 256, 1024}) {
		t.Fatalf("NodeCounts = %v, %v", counts, err)
	}
	sz, err := o.SizeBytes()
	if err != nil || sz != 64<<20 {
		t.Fatalf("SizeBytes = %v, %v", sz, err)
	}
	if def, _ := (&Options{}).NodeCounts([]int{7}); !reflect.DeepEqual(def, []int{7}) {
		t.Fatalf("default NodeCounts = %v", def)
	}
	if _, err := (&Options{Nodes: "64,zero"}).NodeCounts(nil); err == nil {
		t.Fatal("bad node count accepted")
	}
	if def, err := (&Options{}).SizeBytes(); def != 0 || err != nil {
		t.Fatalf("default SizeBytes = %v, %v", def, err)
	}
	for _, bad := range []string{"-1MiB", "0", "0B", "0.4B", "12parsecs"} {
		if sz, err := (&Options{Size: bad}).SizeBytes(); err == nil {
			t.Errorf("SizeBytes accepted -size %q as %v", bad, sz)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	t.Parallel()
	bad := []Options{
		{JSONLStream: "s.jsonl", TraceOut: "t.json"},
		{JSONLStream: "s.jsonl", TraceRing: 16},
		{Interval: -time.Second},
		{TimelineInterval: -time.Second},
		{HTTPHold: -time.Second},
		{CrashAt: -time.Second},
		{Outage: -time.Second},
		{Duration: -time.Second},
		{TraceRing: -1},
		{TimelineRing: -4},
		{Depth: -1},
		{Block: -1},
		{FileSize: -1},
		{RADepth: -1},
		{WBDirty: -1},
		{TokenShards: -2},
		{Nodes: "4,x"},
		{Size: "0"},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
	good := Options{Attr: true, JSONLOut: "e.jsonl"}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected %+v: %v", good, err)
	}
}

// TestObsConfigMapping: the flag-to-ObsConfig translation preserves the
// mutual implications main used to encode by hand.
func TestObsConfigMapping(t *testing.T) {
	t.Parallel()
	o := Options{
		EngineStats: true, Attr: true, TraceSample: 64,
		Interval: 5 * time.Second, TimelineRing: 32,
	}
	cfg := o.ObsConfig(io.Discard)
	if !cfg.Trace || !cfg.Engine || !cfg.Stats || !cfg.Timeline {
		t.Fatalf("ObsConfig = %+v", cfg)
	}
	if cfg.EngineTraceEvery != 4096 {
		t.Fatalf("EngineTraceEvery = %d", cfg.EngineTraceEvery)
	}
	if cfg.SampleOneIn != 64 || cfg.TimelineRing != 32 {
		t.Fatalf("ObsConfig = %+v", cfg)
	}
	if cfg.Interval != 5_000_000_000 {
		t.Fatalf("Interval = %d ns", cfg.Interval)
	}
	// Events are retained only for the -trace and -jsonl exporters.
	if !cfg.Discard {
		t.Fatal("-attr without -trace/-jsonl retains events")
	}
	if c := (&Options{Attr: true, JSONLOut: "t.jsonl"}).ObsConfig(nil); c.Discard {
		t.Fatal("-jsonl discards the events it exports")
	}
	plain := Options{}
	if c := plain.ObsConfig(nil); c.Trace || c.Timeline || c.Engine || c.Stats {
		t.Fatalf("zero Options produced observability: %+v", c)
	}
	if plain.NeedObs() {
		t.Fatal("zero Options claims to need obs")
	}
}
