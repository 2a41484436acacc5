package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"gfs/internal/units"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"gfs/internal/sim.(*Sim).Run", "internal/sim/sim.go", "sim"},
		{"gfs/internal/netsim.(*Network).recompute", "internal/netsim/flow.go", "netsim"},
		{"gfs/internal/core.(*pagePool).get", "internal/core/client.go", "core.pagepool"},
		{"gfs/internal/core.(*File).ReadAt", "internal/core/file.go", "core.pagepool"},
		{"gfs/internal/core.(*FileSystem).serveMeta", "internal/core/fs.go", "core.token"},
		{"gfs/internal/core.(*NSDServer).Fail", "internal/core/nsd.go", "core.nsd"},
		{"gfs/internal/core.(*Mount).Create", "internal/core/client.go", "core.client"},
		{"gfs/internal/critpath.(*Agg).Observe", "internal/critpath/agg.go", "trace"},
		{"gfs/internal/units.Bytes.String", "internal/units/units.go", "other"},
		{"main.runWANRead.func1", "perfbench/workloads.go", "driver"},
		{"runtime.mallocgc", "runtime/malloc.go", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}

var sink units.Bytes

// TestWallSplitPct decodes a real CPU profile of a loop calling into a
// simulator package: its samples belong to that layer (units counts as
// "other"), and the shares add up to 100.
func TestWallSplitPct(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			b, _ := units.ParseBytes("64MiB")
			sink += b
		}
	}
	pprof.StopCPUProfile()
	split, err := wallSplitPct([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range split {
		sum += v
	}
	if sum < 99.99 || sum > 100.01 || split["other"] < 50 {
		t.Fatalf("split %v: shares sum to %g, other %g%%", split, sum, split["other"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and end-to-end
// metrics in step with the workloads and metrics this benchmark defines.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workloads.go", i, w.Name, workloads[i].name)
		}
	}
	want := metrics{{"wall_s", "s", 0}, {"setup_s", "s", 0}, {"peak_rss_mb", "MB", 0}}
	want = append(want, modeled(&iter{})[:4]...)
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d printed", len(spec.EndToEnd), len(want))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != want[i].name || m.Unit != want[i].unit {
			t.Errorf("end-to-end metric %d: %s %s in BENCHMARK.json, %s %s printed", i, m.Name, m.Unit, want[i].name, want[i].unit)
		}
	}
}
