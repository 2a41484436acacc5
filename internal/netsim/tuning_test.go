package netsim

import (
	"math"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

func TestLinkEfficiencyDeratesCapacity(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	nw.LinkEfficiency = 0.94
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.DuplexLink("ab", a, b, units.Gbps, 0)
	c := nw.DialTCP(a, b, noWindow)
	var done sim.Time
	s.Post(sim.KindOther, 0, func() { c.SendCtx(trace.Ctx{}, units.Bytes(117.5e6), func() { done = s.Now() }) })
	s.Run()
	// 117.5 MB at 117.5 MB/s (94% of 125) = 1 s.
	approx(t, "derated transfer", done.Seconds(), 1.0, 1e-3)
}

func TestLinkEfficiencyDefaultsToNominal(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s) // LinkEfficiency zero -> 1.0
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	l, _ := nw.DuplexLink("ab", a, b, units.Gbps, 0)
	if got := float64(l.Capacity()); math.Abs(got-1e9) > 1 {
		t.Errorf("capacity = %v, want nominal", l.Capacity())
	}
}

func TestRestartIdlePreservesWindowOverShortGaps(t *testing.T) {
	t.Parallel()
	// A conn idle for less than RestartIdle keeps its grown window; one
	// idle far longer restarts from InitWindow.
	run := func(gap sim.Time) float64 {
		s := sim.New()
		nw := New(s)
		a := nw.NewNode("a")
		b := nw.NewNode("b")
		nw.DuplexLink("ab", a, b, 10*units.Gbps, 40*sim.Millisecond)
		c := nw.DialTCP(a, b, TCPConfig{
			MaxWindow: 16 * units.MiB, InitWindow: 64 * units.KiB,
			RestartIdle: 500 * sim.Millisecond,
		})
		// Grow the window with a long first transfer, then idle exactly
		// `gap` before the second.
		var t0, t1 sim.Time
		s.Post(sim.KindOther, 0, func() {
			c.SendCtx(trace.Ctx{}, 256*units.MiB, func() {
				s.Post(sim.KindOther, gap, func() {
					t0 = s.Now()
					c.SendCtx(trace.Ctx{}, 32*units.MiB, func() { t1 = s.Now() })
				})
			})
		})
		s.Run()
		return float64(32*units.MiB) / (t1 - t0).Seconds()
	}
	warm := run(100 * sim.Millisecond) // < RestartIdle: window kept
	cold := run(5 * sim.Second)        // > RestartIdle: slow-start again
	if warm < cold*1.5 {
		t.Errorf("warm restart %v B/s not faster than cold %v B/s", warm, cold)
	}
}

func TestMinRecomputeIntervalStillConservesBytes(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	nw.MinRecomputeInterval = 500 * sim.Microsecond
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.DuplexLink("ab", a, b, units.Gbps, sim.Millisecond)
	mon := nw.MonitorLink(nw.Links()[0], sim.Second)
	conns := make([]*Conn, 4)
	var want units.Bytes
	s.Post(sim.KindOther, 0, func() {
		for i := range conns {
			conns[i] = nw.DialTCP(a, b, noWindow)
			for j := 0; j < 8; j++ {
				conns[i].SendCtx(trace.Ctx{}, units.Bytes(j+1)*units.MiB, nil)
				want += units.Bytes(j+1) * units.MiB
			}
		}
	})
	s.Run()
	var got units.Bytes
	for _, c := range conns {
		got += c.BytesSent()
	}
	if got != want || mon.Total() != want {
		t.Errorf("bytes: conns %v, monitor %v, want %v", got, mon.Total(), want)
	}
	// Throughput stays near the link rate despite throttled recomputes:
	// 144 MiB over 1 Gb/s ~ 1.21 s.
	elapsed := s.Now().Seconds()
	ideal := float64(want) / 125e6
	if elapsed > ideal*1.1 {
		t.Errorf("throttled recompute cost too much: %.3fs vs ideal %.3fs", elapsed, ideal)
	}
}

func TestThrottledRecomputeTimingError(t *testing.T) {
	t.Parallel()
	// With a large MinRecomputeInterval, completion times may be stale by
	// at most ~the interval.
	s := sim.New()
	nw := New(s)
	nw.MinRecomputeInterval = 10 * sim.Millisecond
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.DuplexLink("ab", a, b, units.Gbps, 0)
	c1 := nw.DialTCP(a, b, noWindow)
	c2 := nw.DialTCP(a, b, noWindow)
	var t1, t2 sim.Time
	s.Post(sim.KindOther, 0, func() {
		c1.SendCtx(trace.Ctx{}, 125*units.MB, func() { t1 = s.Now() })
		c2.SendCtx(trace.Ctx{}, 125*units.MB, func() { t2 = s.Now() })
	})
	s.Run()
	// Exact sharing: both at 2 s. Allow the staleness bound.
	for _, got := range []sim.Time{t1, t2} {
		if got < 1900*sim.Millisecond || got > 2100*sim.Millisecond {
			t.Errorf("completion at %v, want ~2s ± staleness", got)
		}
	}
}

func TestEndpointConnsRoundRobin(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.DuplexLink("ab", a, b, 10*units.Gbps, sim.Millisecond)
	ea := nw.NewEndpoint(a, 3)
	eb := nw.NewEndpoint(b, 3)
	eb.Handle("noop", func(p *sim.Proc, req *Request) Response { return Response{Size: 1} })
	done := 0
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < 9; i++ {
			ea.GoCtx(trace.Ctx{}, eb, "noop", 1, nil, func(Response) { done++ })
		}
	})
	s.Run()
	if done != 9 {
		t.Fatalf("done = %d", done)
	}
	// All three request conns must have carried traffic.
	used := 0
	for _, c := range nw.conns {
		if c.src == a && c.msgsSent > 0 {
			used++
		}
	}
	if used != 3 {
		t.Errorf("round robin used %d of 3 conns", used)
	}
}
