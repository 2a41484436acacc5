package sim

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"gfs/internal/trace"
)

// TestEngineProbeCounts checks per-kind counting and the snapshot basics.
func TestEngineProbeCounts(t *testing.T) {
	t.Parallel()
	s := New()
	p := NewEngineProbe()
	s.SetEngineProbe(p)

	// 10 timers via Sleep and 3 plain events.
	s.Go("sleeper", func(pr *Proc) {
		for i := 0; i < 10; i++ {
			pr.Sleep(Millisecond)
		}
	})
	for i := 0; i < 3; i++ {
		s.Post(KindOther, Time(i)*Microsecond, func() {})
	}
	s.Run()

	snap := p.Snapshot()
	if snap.Events != s.EventsFired() {
		t.Fatalf("probe saw %d events, sim fired %d", snap.Events, s.EventsFired())
	}
	want := map[string]uint64{
		"sim.timer":      10,
		"sim.proc_start": 1,
		"other":          3,
	}
	got := map[string]uint64{}
	for _, k := range snap.Kinds {
		got[k.Name] = k.Count
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("kind %s: got %d events, want %d (all: %v)", name, got[name], n, got)
		}
	}
	if snap.PeakPending < 3 {
		t.Errorf("peak pending %d, want >= 3", snap.PeakPending)
	}
	if snap.WallNs <= 0 {
		t.Errorf("wall time %d, want > 0", snap.WallNs)
	}
	if snap.SimNs != int64(10*Millisecond) {
		t.Errorf("sim window %d, want %d", snap.SimNs, 10*Millisecond)
	}

	var buf bytes.Buffer
	snap.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"events/sec", "sim.timer", "sim.proc_start"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestEngineProbeDetached checks that a probe attached mid-run only counts
// its own window, and that a detached sim runs clean.
func TestEngineProbeDetached(t *testing.T) {
	t.Parallel()
	s := New()
	for i := 0; i < 5; i++ {
		s.Post(KindOther, Time(i), func() {})
	}
	s.Run()
	if s.EventsFired() != 5 {
		t.Fatalf("fired %d, want 5", s.EventsFired())
	}

	p := NewEngineProbe()
	s.SetEngineProbe(p)
	for i := 0; i < 7; i++ {
		s.Post(KindOther, Time(i), func() {})
	}
	s.Run()
	if got := p.Snapshot().Events; got != 7 {
		t.Errorf("probe window saw %d events, want 7", got)
	}

	s.SetEngineProbe(nil)
	s.Post(KindOther, 0, func() {})
	s.Run()
	if s.EventsFired() != 13 {
		t.Errorf("fired %d, want 13", s.EventsFired())
	}
}

// TestEngineProbeDeterminism checks that running the same workload with
// and without a probe produces identical virtual-time outcomes: the probe
// observes, it must never perturb.
func TestEngineProbeDeterminism(t *testing.T) {
	t.Parallel()
	run := func(probe bool) (Time, uint64) {
		s := New()
		if probe {
			s.SetEngineProbe(NewEngineProbe())
		}
		s.Go("w", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(Time(i) * Microsecond)
			}
		})
		s.Run()
		return s.Now(), s.EventsFired()
	}
	t1, f1 := run(false)
	t2, f2 := run(true)
	if t1 != t2 || f1 != f2 {
		t.Errorf("probe perturbed the run: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
}

// TestNoteExternalAllocs checks that allocations a subsystem reports as
// recycled-buffer refills (arena misses) are excluded from the
// allocs/event figure, and that the call is nil-safe so call sites need
// no probe guard. It stays serial: the probe reads the process-wide
// allocation counter, which parallel tests would inflate.
func TestNoteExternalAllocs(t *testing.T) {
	var nilProbe *EngineProbe
	nilProbe.NoteExternalAllocs(7) // must not panic

	sink := make([][]byte, 0, 256)
	run := func(external uint64) float64 {
		sink = sink[:0]
		s := New()
		p := NewEngineProbe()
		s.SetEngineProbe(p)
		s.Go("w", func(pr *Proc) {
			for i := 0; i < 200; i++ {
				pr.Sleep(Microsecond)
				sink = append(sink, make([]byte, 4096)) // real per-event allocation
			}
		})
		s.Run()
		p.NoteExternalAllocs(external)
		return p.Snapshot().AllocsPerEvent
	}
	base := run(0)
	if base < 1 {
		t.Fatalf("baseline allocs/event = %v, want >= 1", base)
	}
	// Charging N allocations as external must lower the figure by about
	// N/events relative to an identical run.
	const external = 100
	got := run(external)
	wantDrop := float64(external) / 201 // 200 timers + proc start
	if drop := base - got; drop < wantDrop*0.5 || drop > wantDrop*1.5 {
		t.Errorf("external allocs dropped allocs/event by %v, want about %v (base %v, got %v)",
			drop, wantDrop, base, got)
	}
	// Over-reporting must clamp to zero, never wrap negative.
	if r := run(1 << 40); r != 0 {
		t.Errorf("over-reported external allocs gave %v, want 0", r)
	}
}

// TestEngineTraceSample checks the deterministic engine instants carry
// only virtual-time fields.
func TestEngineTraceSample(t *testing.T) {
	t.Parallel()
	run := func() []byte {
		s := New()
		tr := trace.New()
		s.SetTracer(tr)
		p := NewEngineProbe()
		p.TraceSampleEvery = 4
		s.SetEngineProbe(p)
		s.Go("w", func(pr *Proc) {
			for i := 0; i < 20; i++ {
				pr.Sleep(Microsecond)
			}
		})
		s.Run()
		var buf bytes.Buffer
		for i := range tr.Events() {
			e := &tr.Events()[i]
			if e.Cat != "engine" {
				continue
			}
			buf.WriteString(e.Name)
			for _, a := range tr.EvArgs(e) {
				buf.WriteString(a.Key)
				buf.WriteByte(':')
				buf.WriteString(strconv.FormatInt(a.IVal, 10))
				buf.WriteByte(' ')
			}
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no engine sample instants recorded")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("engine instants differ across identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestDepthBucket(t *testing.T) {
	t.Parallel()
	cases := []struct{ d, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := depthBucket(c.d); got != c.want {
			t.Errorf("depthBucket(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestMergeEngineSnapshots(t *testing.T) {
	t.Parallel()
	a := EngineSnapshot{
		Events: 100, WallNs: 1e9, SimNs: 2e9, PeakPending: 10, AllocsPerEvent: 2,
		Kinds: []EngineKindStat{{Name: "x", Count: 60, EstWallNs: 100}},
	}
	b := EngineSnapshot{
		Events: 300, WallNs: 1e9, SimNs: 2e9, PeakPending: 40, AllocsPerEvent: 4,
		Kinds: []EngineKindStat{{Name: "x", Count: 200, EstWallNs: 300}, {Name: "a", Count: 100}},
	}
	m := MergeEngineSnapshots([]EngineSnapshot{a, b})
	if m.Events != 400 || m.WallNs != 2e9 || m.PeakPending != 40 {
		t.Errorf("merge basics wrong: %+v", m)
	}
	if m.EventsPerSec != 200 {
		t.Errorf("events/sec = %v, want 200", m.EventsPerSec)
	}
	// Alloc rate is event-weighted: (100*2 + 300*4)/400 = 3.5.
	if m.AllocsPerEvent != 3.5 {
		t.Errorf("allocs/event = %v, want 3.5", m.AllocsPerEvent)
	}
	if len(m.Kinds) != 2 || m.Kinds[0].Name != "a" || m.Kinds[1].Count != 260 {
		t.Errorf("merged kinds wrong: %+v", m.Kinds)
	}
}
