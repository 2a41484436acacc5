package experiments

import (
	"bufio"
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gfs/internal/core"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// counterOwners are the statistics types whose counter-tagged fields
// make up the -stats counter block.
var counterOwners = []any{
	core.MountStats{}, core.FSStats{}, core.ServerStats{}, core.ClusterStats{}, netsim.NetStats{},
}

// parseCounters reads a counter block back: counter lines by name, and
// the gauge lines separately.
func parseCounters(t *testing.T, block string) (counters map[string]uint64, gauges []string) {
	t.Helper()
	counters = map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(block))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 3 && f[0] == "counter":
			n, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				t.Fatalf("bad counter line %q", sc.Text())
			}
			if _, dup := counters[f[1]]; dup {
				t.Fatalf("counter %s rendered twice", f[1])
			}
			counters[f[1]] = n
		case len(f) > 0 && f[0] == "gauge":
			gauges = append(gauges, sc.Text())
		default:
			t.Fatalf("unexpected counter-block line %q", sc.Text())
		}
	}
	return counters, gauges
}

// TestCounterRoundTrip: every field tagged counter:"<name>" on a counter
// owner renders as its own line with its value, and nothing else does.
// A new counter is one tagged field plus its increment; this test is
// what proves the field reaches the block.
func TestCounterRoundTrip(t *testing.T) {
	t.Parallel()
	want := map[string]uint64{}
	sum := core.Counters{}
	next := uint64(1)
	for _, owner := range counterOwners {
		v := reflect.New(reflect.TypeOf(owner)).Elem()
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Tag.Get("counter")
			if name == "" {
				continue
			}
			if _, dup := want[name]; dup {
				t.Fatalf("counter %s declared twice", name)
			}
			if f := v.Field(i); f.CanInt() {
				f.SetInt(int64(next))
			} else {
				f.SetUint(next)
			}
			want[name] = next
			next++
		}
		sum.Add(v.Interface())
	}
	var buf bytes.Buffer
	sum.Write(&buf)
	got, gauges := parseCounters(t, buf.String())
	if len(gauges) != 0 {
		t.Errorf("Counters rendered gauge lines: %q", gauges)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got  %v\n want %v", got, want)
	}

	// A real observed run: every line of its block is a tagged counter
	// or the in-flight gauge, and every owner type contributes.
	o := NewObs(ObsConfig{Stats: true})
	traceWorkload(t, Env{Obs: o})
	buf.Reset()
	o.WriteCounters(&buf)
	got, gauges = parseCounters(t, buf.String())
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("block line %s has no counter tag", name)
		}
	}
	for _, owner := range counterOwners {
		seen := false
		for i, ty := 0, reflect.TypeOf(owner); i < ty.NumField(); i++ {
			_, ok := got[ty.Field(i).Tag.Get("counter")]
			seen = seen || ok
		}
		if !seen {
			t.Errorf("no %T counter in the block:\n%s", owner, buf.String())
		}
	}
	if len(gauges) != 1 || !strings.HasPrefix(gauges[0], "gauge   rpc.in_flight ") {
		t.Errorf("gauge lines = %q, want one rpc.in_flight", gauges)
	}
}

// TestCountersSurviveUnmount: a client reads a remote filesystem, then
// unmounts it mid-run and keeps working on its local one. The counter
// block must still count the detached mount, no client timeline window
// may step backwards, and the client's remote reads must show in its
// rate (it is sampled once, under its home cluster, not once per
// cluster it mounts from).
func TestCountersSurviveUnmount(t *testing.T) {
	t.Parallel()
	o := NewObs(ObsConfig{Stats: true, Timeline: true, TimelineInterval: 20 * sim.Millisecond})
	env := Env{Obs: o}
	s, owner, importer, device := twoSites(env)
	writer := owner.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]
	reader := importer.AddClients(1, units.Gbps, core.DefaultClientConfig())[0]
	var mounts []*core.Mount
	env.run(s, func(p *sim.Proc) error {
		mw, err := writer.MountLocal(p, owner.FS)
		if err != nil {
			return err
		}
		if err := seedFile(p, mw, "/data", 16*units.MiB, units.MiB); err != nil {
			return err
		}
		local, err := reader.MountLocal(p, importer.FS)
		if err != nil {
			return err
		}
		remote, err := reader.MountRemote(p, device)
		if err != nil {
			return err
		}
		mounts = []*core.Mount{mw, local, remote}
		f, err := remote.Open(p, "/data")
		if err != nil {
			return err
		}
		for i := 0; i < 64; i++ {
			if err := f.Read(p, 256*units.KiB); err != nil {
				return err
			}
		}
		if err := f.Close(p); err != nil {
			return err
		}
		if err := remote.Unmount(p); err != nil {
			return err
		}
		// Idle a few windows, so the one holding the unmount has no new
		// local ops to mask a lost count.
		p.Sleep(100 * sim.Millisecond)
		return seedFile(p, local, "/scratch", 4*units.MiB, 256*units.KiB)
	})

	var buf bytes.Buffer
	o.WriteCounters(&buf)
	got, _ := parseCounters(t, buf.String())
	var sum core.MountStats
	for _, m := range mounts {
		st := m.Stats()
		sum.CacheMisses += st.CacheMisses
		sum.PrefetchIssued += st.PrefetchIssued
		sum.MetaCalls += st.MetaCalls
	}
	for name, n := range map[string]uint64{
		"cache.misses":          sum.CacheMisses,
		"cache.prefetch_issued": sum.PrefetchIssued,
		"meta.calls":            sum.MetaCalls,
	} {
		if got[name] != n {
			t.Errorf("%s = %d, want %d summed over every mount, detached included", name, got[name], n)
		}
	}
	if st := reader.Stats(); st.Reads < mounts[2].Stats().Reads {
		t.Errorf("client reads %d lost the detached mount's %d", st.Reads, mounts[2].Stats().Reads)
	}

	checked, readerPeak := 0, 0.0
	for _, tl := range o.Timelines() {
		for _, se := range tl.Prefix("client.") {
			for _, pt := range se.Points() {
				if pt.V < 0 || (strings.HasSuffix(se.Name, ".hit_rate") && pt.V > 1) {
					t.Errorf("%s = %v at t=%vs", se.Name, pt.V, pt.T)
				}
				if se.Name == "client."+reader.ID()+".ops_per_s" {
					readerPeak = max(readerPeak, pt.V)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no client timeline windows")
	}
	if readerPeak == 0 {
		t.Errorf("client %s never showed a non-zero op rate", reader.ID())
	}
}
