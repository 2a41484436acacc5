package experiments

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/critpath"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// twoSites builds a small two-site WAN topology in env: "alpha" owns
// gpfs0 and exports it to "beta", which has its own scratch filesystem.
// It returns the simulator, both sites and beta's device for gpfs0.
func twoSites(env Env) (*sim.Sim, *Site, *Site, string) {
	s := env.NewSim()
	nw := env.newEthernetNet(s)
	owner := env.NewSite(s, nw, "alpha")
	owner.BuildFS(FSOptions{
		Name: "gpfs0", BlockSize: 256 * units.KiB,
		Servers: 2, ServerEth: units.Gbps,
		StoreRate: 200 * units.MBps, StoreCap: 64 * units.GiB, StoreStreams: 2,
	})
	importer := env.NewSite(s, nw, "beta")
	importer.BuildFS(FSOptions{
		Name: "scratch", BlockSize: 256 * units.KiB,
		Servers: 1, ServerEth: units.Gbps,
		StoreRate: 200 * units.MBps, StoreCap: 64 * units.GiB, StoreStreams: 2,
	})
	nw.DuplexLink("wan", owner.Switch, importer.Switch, units.Gbps, 10*sim.Millisecond)
	return s, owner, importer, Peer(owner, importer, auth.ReadWrite)
}

// traceWorkload seeds a file at the owning site of twoSites and reads it
// remotely (read-ahead, tokens, a revoke via a second writer).
func traceWorkload(t *testing.T, env Env) {
	t.Helper()
	s, owner, importer, device := twoSites(env)
	writer := owner.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]
	reader := importer.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]

	env.run(s, func(p *sim.Proc) error {
		mw, err := writer.MountLocal(p, owner.FS)
		if err != nil {
			return err
		}
		if err := seedFile(p, mw, "/data", 16*units.MiB, units.MiB); err != nil {
			return err
		}
		mr, err := reader.MountRemote(p, device)
		if err != nil {
			return err
		}
		f, err := mr.Open(p, "/data")
		if err != nil {
			return err
		}
		if err := f.Read(p, 8*units.MiB); err != nil {
			return err
		}
		// Overlapping writes from the remote side force token revocation
		// against the seeder's exclusive ranges.
		g, err := mr.Open(p, "/data")
		if err != nil {
			return err
		}
		if err := g.WriteAt(p, 0, 2*units.MiB); err != nil {
			return err
		}
		if err := g.Close(p); err != nil {
			return err
		}
		return f.Close(p)
	})
}

// traceRun observes traceWorkload and returns the
// observability products: the Chrome trace bytes, the JSONL bytes, the
// mmpmon snapshot and the counter block with the histograms.
func traceRun(t *testing.T) (chrome, jsonl, snapshot, registry []byte) {
	t.Helper()
	o := NewObs(ObsConfig{Trace: true, Stats: true})
	traceWorkload(t, Env{Obs: o})

	var cb, jb, sb bytes.Buffer
	if err := o.Tracer.WriteChrome(&cb); err != nil {
		t.Fatal(err)
	}
	if err := o.Tracer.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	o.Snapshot(&sb)
	var rb bytes.Buffer
	o.WriteCounters(&rb)
	rb.WriteString(o.Registry.Render())
	return cb.Bytes(), jb.Bytes(), sb.Bytes(), rb.Bytes()
}

// TestTraceDeterminism runs the same seeded experiment twice and demands
// byte-identical observability output — the property that makes traces
// diffable across code changes.
func TestTraceDeterminism(t *testing.T) {
	t.Parallel()
	c1, j1, s1, r1 := traceRun(t)
	c2, j2, s2, r2 := traceRun(t)
	if !bytes.Equal(c1, c2) {
		t.Error("Chrome trace differs between identical runs")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL trace differs between identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("mmpmon snapshot differs between identical runs")
	}
	if !bytes.Equal(r1, r2) {
		t.Error("metrics registry differs between identical runs")
	}
	if len(c1) == 0 || len(j1) == 0 || len(s1) == 0 || len(r1) == 0 {
		t.Fatal("empty observability output")
	}
}

// TestAttributionDeterminism: the rendered critical-path attribution of
// two identical runs must be byte-identical, and must attribute time to
// the phases this topology exercises (WAN propagation, disk service,
// network serialization).
func TestAttributionDeterminism(t *testing.T) {
	t.Parallel()
	render := func() string {
		o := NewObs(ObsConfig{Trace: true})
		traceWorkload(t, Env{Obs: o})
		return critpath.Analyze(o.Tracer).String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("attribution reports differ between identical runs:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{"read", "write", "fetch", "wan_prop", "disk"} {
		if !strings.Contains(a, want) {
			t.Errorf("attribution report missing %q:\n%s", want, a)
		}
	}
}

// TestAttributionConservation: on a real end-to-end workload every op's
// phase breakdown must sum exactly to its end-to-end latency — the
// causal tree wiring through tokens, RPCs, flows and disks loses no
// intervals and double-counts none.
func TestAttributionConservation(t *testing.T) {
	t.Parallel()
	o := NewObs(ObsConfig{Trace: true})
	traceWorkload(t, Env{Obs: o})
	rep := critpath.Analyze(o.Tracer)
	if len(rep.Ops) == 0 {
		t.Fatal("no operations analyzed")
	}
	for _, s := range rep.Ops {
		var total int64
		for _, d := range s.Phases {
			total += d
		}
		if total != s.TotalNs {
			t.Errorf("%s: phase sum %d != e2e total %d", s.Name, total, s.TotalNs)
		}
	}
}

// TestTraceCoversStack verifies the full-stack coverage the monitor
// promises: RPC, flow, NSD, token, cache and auth events all appear, and
// the mmpmon snapshot agrees with MountStats.
func TestTraceCoversStack(t *testing.T) {
	t.Parallel()
	o := NewObs(ObsConfig{Trace: true, Stats: true})
	env := Env{Obs: o}
	s := env.NewSim()
	nw := env.newEthernetNet(s)
	owner := env.NewSite(s, nw, "alpha")
	owner.BuildFS(FSOptions{
		Name: "gpfs0", BlockSize: 256 * units.KiB,
		Servers: 2, ServerEth: units.Gbps,
		StoreRate: 200 * units.MBps, StoreCap: 64 * units.GiB, StoreStreams: 2,
	})
	importer := env.NewSite(s, nw, "beta")
	importer.BuildFS(FSOptions{
		Name: "scratch", BlockSize: 256 * units.KiB,
		Servers: 1, ServerEth: units.Gbps,
		StoreRate: 200 * units.MBps, StoreCap: 64 * units.GiB, StoreStreams: 2,
	})
	nw.DuplexLink("wan", owner.Switch, importer.Switch, units.Gbps, 10*sim.Millisecond)
	// ReadWrite: Close publishes the size via a setsize metadata write,
	// which a read-only grant would refuse.
	device := Peer(owner, importer, auth.ReadWrite)
	writer := owner.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]
	reader := importer.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]

	var st core.MountStats
	env.run(s, func(p *sim.Proc) error {
		mw, err := writer.MountLocal(p, owner.FS)
		if err != nil {
			return err
		}
		if err := seedFile(p, mw, "/data", 8*units.MiB, units.MiB); err != nil {
			return err
		}
		mr, err := reader.MountRemote(p, device)
		if err != nil {
			return err
		}
		f, err := mr.Open(p, "/data")
		if err != nil {
			return err
		}
		if err := f.Read(p, 8*units.MiB); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		st = mr.Stats()
		return nil
	})

	for _, cat := range []string{"rpc", "flow", "nsd", "token", "cache", "auth"} {
		if o.Tracer.CountByCat(cat) == 0 {
			t.Errorf("no %q events in trace (%s)", cat, o.Tracer.Summary())
		}
	}
	if st.BytesRead != 8*units.MiB {
		t.Fatalf("remote mount read %v, want 8 MiB", st.BytesRead)
	}
	if st.Opens != 1 || st.Closes != 1 || st.Reads == 0 {
		t.Fatalf("op counts %+v", st)
	}

	// The snapshot must carry the same per-mount byte totals as
	// MountStats.
	var buf bytes.Buffer
	o.Snapshot(&buf)
	want := fmt.Sprintf("bytes read: %d", int64(st.BytesRead))
	if !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("snapshot missing %q:\n%s", want, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("mmpmon node beta/c0 fs_io_s OK")) {
		t.Fatalf("snapshot missing importer fs_io_s section:\n%s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("mmpmon resource ")) {
		t.Fatalf("snapshot missing resource utilization lines:\n%s", buf.String())
	}
}

// TestPeriodicSnapshotsDrain: a live snapshot tick must not keep the
// simulation from draining, and must fire while work is in flight.
func TestPeriodicSnapshotsDrain(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	env := Env{Obs: NewObs(ObsConfig{Stats: true, Interval: 50 * sim.Millisecond, Out: &out})}
	s := env.NewSim()
	nw := env.newEthernetNet(s)
	site := env.NewSite(s, nw, "solo")
	site.BuildFS(FSOptions{
		Name: "gpfs0", BlockSize: 256 * units.KiB,
		Servers: 1, ServerEth: units.Gbps,
		StoreRate: 100 * units.MBps, StoreCap: units.GiB, StoreStreams: 2,
	})
	client := site.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]
	env.run(s, func(p *sim.Proc) error {
		m, err := client.MountLocal(p, site.FS)
		if err != nil {
			return err
		}
		return seedFile(p, m, "/f", 64*units.MiB, units.MiB)
	})
	if n := bytes.Count(out.Bytes(), []byte("=== mmpmon snapshot")); n < 2 {
		t.Fatalf("expected several periodic snapshots, got %d:\n%.500s", n, out.String())
	}
}

// TestTracedSnapshotsParse parses what a traced run with periodic
// snapshots and a timeline writes (the output of gfssim -stats -interval
// with tracing on) and requires the parser to read every line of it: no
// warnings, and one record for each "mmpmon <kind>" line written.
func TestTracedSnapshotsParse(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	o := NewObs(ObsConfig{
		Trace: true, Stats: true, Interval: 20 * sim.Millisecond, Out: &out,
		Timeline: true, TimelineInterval: 10 * sim.Millisecond, TimelineRing: 8,
	})
	traceWorkload(t, Env{Obs: o})
	o.Snapshot(&out)

	snap, err := core.ParseMmpmon(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Warnings) != 0 {
		t.Fatalf("%d warnings, first: %s", len(snap.Warnings), snap.Warnings[0])
	}
	written := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "mmpmon" && f[1] != "node" && f[1] != "fs" {
			written[f[1]]++
		}
	}
	parsed := map[string]int{}
	for _, r := range snap.Records {
		parsed[r.Kind]++
	}
	for _, io := range snap.IO {
		parsed["nsd"] += len(io.NSDs)
	}
	for _, kind := range []string{"nsd", "resource", "sim", "solver", "hist", "rate", "op_lat"} {
		if written[kind] == 0 {
			t.Errorf("no mmpmon %s line written", kind)
		}
	}
	if !maps.Equal(parsed, written) {
		t.Errorf("records per kind %v, lines written %v", parsed, written)
	}
}
