package timeline

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gfs/internal/sim"
)

// driveCounter schedules one event per 100ms until end that adds step to
// a cumulative counter, returning a pointer to it — a deterministic
// stand-in for BytesServed-style counters.
func driveCounter(s *sim.Sim, end sim.Time, step float64) *float64 {
	cum := new(float64)
	for t := 100 * sim.Millisecond; t <= end; t += 100 * sim.Millisecond {
		s.Post(sim.KindOther, t, func() { *cum += step })
	}
	return cum
}

func TestRateWindows(t *testing.T) {
	t.Parallel()
	s := sim.New()
	cum := driveCounter(s, 3*sim.Second, 10) // 100/s steady
	c := New(s, sim.Second)
	c.AddSource(func(tk *Tick) {
		tk.Rate("bytes", "B/s", *cum)
		tk.Gauge("depth", "reqs", 7)
	})
	s.Run()

	se := c.Get("bytes")
	if se == nil {
		t.Fatal("series not created")
	}
	pts := se.Points()
	if len(pts) != 3 {
		t.Fatalf("got %d windows, want 3: %v", len(pts), pts)
	}
	for i, p := range pts {
		if want := float64(i + 1); p.T != want {
			t.Errorf("window %d at t=%v, want %v", i, p.T, want)
		}
		if p.V != 100 {
			t.Errorf("window %d rate %v, want 100 (delta 10 B per 100ms)", i, p.V)
		}
	}
	if g, _ := c.Get("depth").Last(); g.V != 7 {
		t.Errorf("gauge %v, want 7", g.V)
	}
	if c.Get("depth").Unit != "reqs" {
		t.Errorf("unit %q, want reqs", c.Get("depth").Unit)
	}
}

func TestRatioWindows(t *testing.T) {
	t.Parallel()
	s := sim.New()
	hits, total := new(float64), new(float64)
	s.Post(sim.KindOther, sim.Second/2, func() { *hits += 3; *total += 4 })
	s.Post(sim.KindOther, 3*sim.Second/2, func() { *hits += 1; *total += 4 })
	s.Post(sim.KindOther, 3*sim.Second, func() {}) // keeps the third (traffic-free) window open
	c := New(s, sim.Second)
	c.AddSource(func(tk *Tick) { tk.Ratio("hit", "frac", *hits, *total) })
	s.Run()
	want := []float64{0.75, 0.25, 0}
	vals := c.Get("hit").Values()
	if len(vals) != 3 {
		t.Fatalf("got %d windows, want 3", len(vals))
	}
	for i, v := range vals {
		if v != want[i] {
			t.Errorf("window %d ratio %v, want %v", i, v, want[i])
		}
	}
}

// TestDaemonTicksDoNotKeepRunAlive is the regression test for the
// livelock this package's first draft had: two independent periodic
// collectors each counted the other as pending work and rescheduled
// forever. Daemon events end with the real workload.
func TestDaemonTicksDoNotKeepRunAlive(t *testing.T) {
	t.Parallel()
	s := sim.New()
	a := New(s, sim.Second)
	b := New(s, 300*sim.Millisecond)
	a.AddSource(func(tk *Tick) { tk.Gauge("x", "", 1) })
	b.AddSource(func(tk *Tick) { tk.Gauge("y", "", 2) })
	s.Post(sim.KindOther, 5*sim.Second, func() {}) // the only real work
	s.Run()
	if s.Now() != 5*sim.Second {
		t.Fatalf("run ended at %v, want 5s (collectors must not extend the run)", s.Now())
	}
	if a.Ticks() == 0 || b.Ticks() == 0 {
		t.Fatalf("collectors never ticked: a=%d b=%d", a.Ticks(), b.Ticks())
	}
}

func TestRingRetention(t *testing.T) {
	t.Parallel()
	s := sim.New()
	cum := driveCounter(s, 10*sim.Second, 1)
	c := New(s, sim.Second)
	c.SetRing(4)
	c.AddSource(func(tk *Tick) { tk.Rate("r", "x/s", *cum) })
	s.Run()

	se := c.Get("r")
	if se.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", se.Len())
	}
	if se.Total() != 10 {
		t.Fatalf("total %d, want 10", se.Total())
	}
	pts := se.Points()
	for i, p := range pts {
		if want := float64(7 + i); p.T != want {
			t.Errorf("ring pos %d at t=%v, want %v (oldest-first linearization)", i, p.T, want)
		}
	}
	if last, ok := se.Last(); !ok || last.T != 10 {
		t.Errorf("Last = %v/%v, want t=10", last, ok)
	}
}

func TestStreamDeterminismAndRoundTrip(t *testing.T) {
	t.Parallel()
	runOnce := func() []byte {
		var buf bytes.Buffer
		s := sim.New()
		cum := driveCounter(s, 3*sim.Second, 2.5)
		c := New(s, sim.Second)
		c.Label = "unit"
		c.SetStream(&buf)
		c.AddSource(func(tk *Tick) {
			tk.Rate("a.rate", "B/s", *cum)
			tk.Gauge("b.gauge", "reqs", *cum/2)
		})
		s.Run()
		if err := c.StreamErr(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b1, b2 := runOnce(), runOnce()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("streams differ:\n%s\n---\n%s", b1, b2)
	}
	if !strings.HasPrefix(string(b1), `{"timeline":"unit","interval_s":1}`) {
		t.Fatalf("missing header: %s", b1)
	}

	dump, err := ReadJSONL(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(dump.Runs))
	}
	run := dump.Runs[0]
	if run.Label != "unit" || run.IntervalS != 1 {
		t.Fatalf("header round-trip: %q %v", run.Label, run.IntervalS)
	}
	if got := run.Names(); len(got) != 2 || got[0] != "a.rate" || got[1] != "b.gauge" {
		t.Fatalf("names %v", got)
	}
	if vals := run.Get("a.rate").Values(); len(vals) != 3 || vals[0] != 25 {
		t.Fatalf("a.rate round-trip: %v", vals)
	}
}

func TestSanitizeNonFinite(t *testing.T) {
	t.Parallel()
	s := sim.New()
	s.Post(sim.KindOther, sim.Second, func() {})
	c := New(s, sim.Second)
	c.AddSource(func(tk *Tick) {
		tk.Gauge("nan", "", math.NaN())
		tk.Gauge("inf", "", math.Inf(1))
	})
	s.Run()
	for _, n := range []string{"nan", "inf"} {
		if v, _ := c.Get(n).Last(); v.V != 0 {
			t.Errorf("%s sanitized to %v, want 0", n, v.V)
		}
	}
}

func TestSpark(t *testing.T) {
	t.Parallel()
	if got := Spark([]float64{0, 1, 2, 4}, 4); len([]rune(got)) != 4 {
		t.Fatalf("spark %q", got)
	}
	if Spark([]float64{0, 0}, 0) != "▁▁" {
		t.Fatalf("all-zero spark %q", Spark([]float64{0, 0}, 0))
	}
}
