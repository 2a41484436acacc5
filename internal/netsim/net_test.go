package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// noWindow disables the TCP window model so tests isolate link sharing.
var noWindow = TCPConfig{}

func twoNodeNet(rate units.BitsPerSec, delay sim.Time) (*sim.Sim, *Network, *Node, *Node) {
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.DuplexLink("ab", a, b, rate, delay)
	return s, nw, a, b
}

func TestSingleFlowSaturatesLink(t *testing.T) {
	t.Parallel()
	s, nw, a, b := twoNodeNet(1*units.Gbps, sim.Millisecond)
	c := nw.DialTCP(a, b, noWindow)
	var deliveredAt sim.Time
	s.Post(sim.KindOther, 0, func() {
		c.SendCtx(trace.Ctx{}, 125*units.MB, func() { deliveredAt = s.Now() })
	})
	s.Run()
	// 125 MB at 125 MB/s = 1 s, + 1 ms propagation.
	approx(t, "delivery time", deliveredAt.Seconds(), 1.001, 1e-6)
	if c.BytesSent() != 125*units.MB {
		t.Errorf("BytesSent = %v", c.BytesSent())
	}
}

func TestWindowCapsThroughput(t *testing.T) {
	t.Parallel()
	// 10 Gb/s link but 80 ms RTT and 8 MiB window: rate = 8 MiB / 80 ms
	// ≈ 104.9 MB/s — the SC'02 question in miniature.
	s, nw, a, b := twoNodeNet(10*units.Gbps, 40*sim.Millisecond)
	c := nw.DialTCP(a, b, TCPConfig{MaxWindow: 8 * units.MiB})
	var deliveredAt sim.Time
	size := units.Bytes(8*units.MiB) * 10
	s.Post(sim.KindOther, 0, func() {
		c.SendCtx(trace.Ctx{}, size, func() { deliveredAt = s.Now() })
	})
	s.Run()
	rate := float64(8*units.MiB) / 0.080
	want := float64(size)/rate + 0.040
	approx(t, "delivery time", deliveredAt.Seconds(), want, 1e-3)
}

func TestTwoFlowsShareFairly(t *testing.T) {
	t.Parallel()
	s, nw, a, b := twoNodeNet(1*units.Gbps, sim.Millisecond)
	c1 := nw.DialTCP(a, b, noWindow)
	c2 := nw.DialTCP(a, b, noWindow)
	var t1, t2 sim.Time
	s.Post(sim.KindOther, 0, func() {
		c1.SendCtx(trace.Ctx{}, 125*units.MB, func() { t1 = s.Now() })
		c2.SendCtx(trace.Ctx{}, 125*units.MB, func() { t2 = s.Now() })
	})
	s.Run()
	// Each gets 62.5 MB/s while both active: both finish at ~2 s.
	approx(t, "flow1 finish", t1.Seconds(), 2.001, 1e-3)
	approx(t, "flow2 finish", t2.Seconds(), 2.001, 1e-3)
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	t.Parallel()
	s, nw, a, b := twoNodeNet(1*units.Gbps, 0)
	c1 := nw.DialTCP(a, b, noWindow)
	c2 := nw.DialTCP(a, b, noWindow)
	var t1, t2 sim.Time
	s.Post(sim.KindOther, 0, func() {
		c1.SendCtx(trace.Ctx{}, 125*units.MB, func() { t1 = s.Now() })
		c2.SendCtx(trace.Ctx{}, units.Bytes(62.5e6)/2, func() { t2 = s.Now() }) // 31.25 MB
	})
	s.Run()
	// Shared phase: both at 62.5 MB/s; c2 finishes its 31.25 MB at 0.5 s.
	// c1 then has 93.75 MB left at full 125 MB/s: +0.75 s => 1.25 s.
	approx(t, "short flow", t2.Seconds(), 0.5, 1e-3)
	approx(t, "long flow", t1.Seconds(), 1.25, 1e-3)
}

func TestCappedFlowLeavesResidual(t *testing.T) {
	t.Parallel()
	// One capped conn (50 MB/s via window) + one open conn on a 1 Gb/s
	// link: open conn should get the remaining 75 MB/s.
	s, nw, a, b := twoNodeNet(1*units.Gbps, 50*sim.Millisecond)
	// cap = wnd/rtt = 5 MB / 0.1 s = 50 MB/s.
	capped := nw.DialTCP(a, b, TCPConfig{MaxWindow: 5 * units.MB})
	open := nw.DialTCP(a, b, noWindow)
	var tOpen sim.Time
	s.Post(sim.KindOther, 0, func() {
		capped.SendCtx(trace.Ctx{}, 500*units.MB, nil) // keeps it busy throughout
		open.SendCtx(trace.Ctx{}, 75*units.MB, func() { tOpen = s.Now() })
	})
	s.RunUntil(20 * sim.Second)
	approx(t, "open flow finish", tOpen.Seconds(), 1.0+0.05, 5e-3)
}

func TestSlowStartRamp(t *testing.T) {
	t.Parallel()
	// With slow start from 64 KiB, early throughput must be well below
	// the steady-state cap, and cwnd doubles each RTT.
	s, nw, a, b := twoNodeNet(10*units.Gbps, 40*sim.Millisecond)
	c := nw.DialTCP(a, b, TCPConfig{MaxWindow: 16 * units.MiB, InitWindow: 64 * units.KiB})
	s.Post(sim.KindOther, 0, func() { c.SendCtx(trace.Ctx{}, 1*units.GB, nil) })
	s.RunUntil(100 * sim.Millisecond) // ~1 RTT in
	early := float64(c.Rate())
	s.RunUntil(2 * sim.Second)
	late := float64(c.Rate())
	if late <= early*4 {
		t.Errorf("slow start missing: early rate %v, late rate %v", early, late)
	}
	wantLate := float64(16*units.MiB) / 0.080
	approx(t, "steady rate", late, wantLate, wantLate*0.01)
}

func TestBottleneckInMiddle(t *testing.T) {
	t.Parallel()
	// a --10G-- m --1G-- b : end-to-end limited by the 1G hop.
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	m := nw.NewNode("m")
	b := nw.NewNode("b")
	nw.DuplexLink("am", a, m, 10*units.Gbps, 0)
	nw.DuplexLink("mb", m, b, 1*units.Gbps, 0)
	c := nw.DialTCP(a, b, noWindow)
	var done sim.Time
	s.Post(sim.KindOther, 0, func() { c.SendCtx(trace.Ctx{}, 125*units.MB, func() { done = s.Now() }) })
	s.Run()
	approx(t, "bottleneck time", done.Seconds(), 1.0, 1e-3)
}

func TestECMPSpreadsConns(t *testing.T) {
	t.Parallel()
	// Two parallel 10G links between switches; many conns should use both.
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.DuplexLink("p1", a, b, 10*units.Gbps, sim.Millisecond)
	nw.DuplexLink("p2", a, b, 10*units.Gbps, sim.Millisecond)
	used := map[*Link]int{}
	for i := 0; i < 32; i++ {
		c := nw.DialTCP(a, b, noWindow)
		if len(c.path) != 1 {
			t.Fatalf("path len = %d", len(c.path))
		}
		used[c.path[0]]++
	}
	if len(used) != 2 {
		t.Fatalf("ECMP used %d of 2 parallel links", len(used))
	}
	for l, n := range used {
		if n < 8 {
			t.Errorf("link %s got only %d/32 conns", l.Name(), n)
		}
	}
	_ = s
}

func TestNoRoutePanics(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	b := nw.NewNode("b") // no link
	defer func() {
		if recover() == nil {
			t.Fatal("Dial with no route did not panic")
		}
	}()
	nw.Dial(a, b)
}

func TestLoopbackConn(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	c := nw.DialTCP(a, a, noWindow)
	delivered := false
	s.Post(sim.KindOther, 0, func() { c.SendCtx(trace.Ctx{}, units.GB, func() { delivered = true }) })
	s.Run()
	if !delivered {
		t.Fatal("loopback message not delivered")
	}
	if s.Now() != 0 {
		t.Fatalf("loopback took %v, want 0", s.Now())
	}
}

func TestMonitorRecordsLinkBytes(t *testing.T) {
	t.Parallel()
	s, nw, a, b := twoNodeNet(1*units.Gbps, 0)
	mon := nw.MonitorLink(nw.Links()[0], sim.Second)
	c := nw.DialTCP(a, b, noWindow)
	s.Post(sim.KindOther, 0, func() { c.SendCtx(trace.Ctx{}, 250*units.MB, nil) })
	s.Run()
	if mon.Total() != 250*units.MB {
		t.Errorf("monitor total = %v, want 250MB", mon.Total())
	}
	ser := mon.SeriesMBps()
	if ser.Len() < 2 || ser.Len() > 3 {
		t.Fatalf("series bins = %d, want 2 (2 s at 125 MB/s, ±1 boundary bin)", ser.Len())
	}
	approx(t, "bin rate", ser.Points[0].Y, 125, 1)
	approx(t, "bin rate", ser.Points[1].Y, 125, 1)
}

func TestMessagesFIFO(t *testing.T) {
	t.Parallel()
	s, nw, a, b := twoNodeNet(1*units.Gbps, sim.Millisecond)
	c := nw.DialTCP(a, b, noWindow)
	var order []int
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < 5; i++ {
			i := i
			c.SendCtx(trace.Ctx{}, units.MB, func() { order = append(order, i) })
		}
	})
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("delivered %d of 5", len(order))
	}
}

func TestPathDelaySum(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	m := nw.NewNode("m")
	b := nw.NewNode("b")
	nw.DuplexLink("am", a, m, units.Gbps, 10*sim.Millisecond)
	nw.DuplexLink("mb", m, b, units.Gbps, 30*sim.Millisecond)
	if got := nw.PathDelay(a, b); got != 40*sim.Millisecond {
		t.Errorf("PathDelay = %v, want 40ms", got)
	}
}

// Property: however many equal flows share one link, the link is fully
// used (sum of rates == capacity) and rates are equal.
func TestPropertyMaxMinSaturation(t *testing.T) {
	t.Parallel()
	f := func(nRaw uint8) bool {
		n := int(nRaw%16) + 1
		s, nw, a, b := twoNodeNet(1*units.Gbps, 0)
		conns := make([]*Conn, n)
		s.Post(sim.KindOther, 0, func() {
			for i := range conns {
				conns[i] = nw.DialTCP(a, b, noWindow)
				conns[i].SendCtx(trace.Ctx{}, units.GB, nil)
			}
		})
		s.RunUntil(sim.Second)
		sum := 0.0
		for _, c := range conns {
			r := float64(c.Rate())
			if math.Abs(r-125e6/float64(n)) > 1 {
				return false
			}
			sum += r
		}
		return math.Abs(sum-125e6) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: bytes are conserved — monitor totals equal the sum of message
// sizes regardless of message count/sizes.
func TestPropertyByteConservation(t *testing.T) {
	t.Parallel()
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) > 40 {
			sizesRaw = sizesRaw[:40]
		}
		s, nw, a, b := twoNodeNet(units.Gbps, sim.Millisecond)
		mon := nw.MonitorLink(nw.Links()[0], sim.Second)
		c := nw.DialTCP(a, b, noWindow)
		var want units.Bytes
		s.Post(sim.KindOther, 0, func() {
			for _, sz := range sizesRaw {
				n := units.Bytes(sz) + 1
				want += n
				c.SendCtx(trace.Ctx{}, n, nil)
			}
		})
		s.Run()
		return mon.Total() == want && c.BytesSent() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
