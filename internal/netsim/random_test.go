package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// buildRandomTopology creates a connected random network: a ring of
// switches (guaranteeing connectivity) plus random chords and hosts.
func buildRandomTopology(s *sim.Sim, rng *rand.Rand) (*Network, []*Node) {
	nw := New(s)
	nSw := rng.Intn(4) + 2
	sws := make([]*Node, nSw)
	for i := range sws {
		sws[i] = nw.NewNode(fmt.Sprintf("sw%d", i))
	}
	for i := range sws {
		rate := units.BitsPerSec(float64(rng.Intn(9)+1)) * units.Gbps
		nw.DuplexLink(fmt.Sprintf("ring%d", i), sws[i], sws[(i+1)%nSw],
			rate, sim.Time(rng.Intn(20))*sim.Millisecond)
	}
	for i := 0; i < rng.Intn(3); i++ {
		a, b := rng.Intn(nSw), rng.Intn(nSw)
		if a != b {
			nw.DuplexLink(fmt.Sprintf("chord%d", i), sws[a], sws[b],
				units.BitsPerSec(float64(rng.Intn(9)+1))*units.Gbps,
				sim.Time(rng.Intn(10))*sim.Millisecond)
		}
	}
	nHosts := rng.Intn(6) + 2
	hosts := make([]*Node, nHosts)
	for i := range hosts {
		hosts[i] = nw.NewNode(fmt.Sprintf("h%d", i))
		nw.DuplexLink(fmt.Sprintf("hl%d", i), hosts[i], sws[rng.Intn(nSw)],
			units.Gbps, sim.Time(rng.Intn(3))*sim.Millisecond)
	}
	return nw, hosts
}

// Property: on any random connected topology with random traffic, every
// message is delivered exactly once, byte counts are conserved, and the
// simulation terminates.
func TestPropertyRandomTopologyConservation(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		nw, hosts := buildRandomTopology(s, rng)
		type rec struct {
			conn *Conn
			want units.Bytes
		}
		var recs []rec
		delivered := 0
		sent := 0
		s.Post(sim.KindOther, 0, func() {
			nConns := rng.Intn(6) + 1
			for i := 0; i < nConns; i++ {
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				if src == dst {
					continue
				}
				var cfg TCPConfig
				if rng.Intn(2) == 0 {
					cfg = TCPConfig{MaxWindow: units.Bytes(rng.Intn(16)+1) * units.MiB,
						InitWindow: 64 * units.KiB}
				}
				c := nw.DialTCP(src, dst, cfg)
				var want units.Bytes
				msgs := rng.Intn(5) + 1
				for j := 0; j < msgs; j++ {
					n := units.Bytes(rng.Intn(int(8*units.MiB)) + 1)
					want += n
					sent++
					c.SendCtx(trace.Ctx{}, n, func() { delivered++ })
				}
				recs = append(recs, rec{c, want})
			}
		})
		s.Run()
		if delivered != sent {
			return false
		}
		for _, r := range recs {
			if r.conn.BytesSent() != r.want {
				return false
			}
			if r.conn.Queued() != 0 || r.conn.active {
				return false
			}
		}
		// All links idle at the end.
		for _, l := range nw.Links() {
			if l.ActiveConns() != 0 {
				return false
			}
		}
		return len(nw.busyLinks) == 0 && len(nw.activeList) == 0 || allInactive(nw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func allInactive(nw *Network) bool {
	for _, c := range nw.activeList {
		if c.active {
			return false
		}
	}
	return true
}

// Property: transfer time on a clean two-node path is never better than
// the physics bound size/capacity + delay.
func TestPropertyPhysicsBound(t *testing.T) {
	t.Parallel()
	f := func(szRaw uint32, rateRaw, delayRaw uint8) bool {
		s := sim.New()
		nw := New(s)
		a := nw.NewNode("a")
		b := nw.NewNode("b")
		rate := units.BitsPerSec(float64(rateRaw%10+1)) * units.Gbps
		delay := sim.Time(delayRaw%50) * sim.Millisecond
		nw.DuplexLink("ab", a, b, rate, delay)
		c := nw.DialTCP(a, b, TCPConfig{})
		size := units.Bytes(szRaw%uint32(64*units.MiB)) + 1
		var done sim.Time
		s.Post(sim.KindOther, 0, func() { c.SendCtx(trace.Ctx{}, size, func() { done = s.Now() }) })
		s.Run()
		bound := float64(size)/(float64(rate)/8) + delay.Seconds()
		return done.Seconds() >= bound-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a window cap and RTT, rate never exceeds window/RTT by
// more than float slop.
func TestPropertyWindowBound(t *testing.T) {
	t.Parallel()
	f := func(wndRaw, delayRaw uint8) bool {
		s := sim.New()
		nw := New(s)
		a := nw.NewNode("a")
		b := nw.NewNode("b")
		delay := sim.Time(delayRaw%40+10) * sim.Millisecond
		nw.DuplexLink("ab", a, b, 100*units.Gbps, delay)
		wnd := units.Bytes(wndRaw%16+1) * units.MiB
		c := nw.DialTCP(a, b, TCPConfig{MaxWindow: wnd})
		size := 64 * units.MiB
		var done sim.Time
		s.Post(sim.KindOther, 0, func() { c.SendCtx(trace.Ctx{}, size, func() { done = s.Now() }) })
		s.Run()
		rate := float64(size) / (done - delay).Seconds()
		capRate := float64(wnd) / (2 * delay).Seconds()
		return rate <= capRate*(1+1e-6) && math.Abs(rate-capRate) < capRate*0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
