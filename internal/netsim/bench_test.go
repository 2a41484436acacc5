package netsim

import (
	"fmt"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// BenchmarkRecompute measures the max-min allocation pass with a fleet of
// active conns on a fat-tree-ish topology — the simulator's hot path.
func BenchmarkRecompute(b *testing.B) {
	s := sim.New()
	nw := New(s)
	core := nw.NewNode("core")
	var hosts []*Node
	for i := 0; i < 64; i++ {
		h := nw.NewNode(fmt.Sprintf("h%d", i))
		nw.DuplexLink(fmt.Sprintf("l%d", i), h, core, units.Gbps, sim.Millisecond)
		hosts = append(hosts, h)
	}
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < 256; i++ {
			c := nw.DialTCP(hosts[i%64], hosts[(i+7)%64], TCPConfig{})
			c.SendCtx(trace.Ctx{}, 100*units.GB, nil) // long-lived: stays active
		}
	})
	s.RunUntil(sim.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Dirty every busy link so the solve covers the whole component,
		// matching the old from-scratch recompute pass.
		for _, l := range nw.busyLinks {
			nw.linkChanged(l)
		}
		for len(nw.dirtyLinks) > 0 {
			nw.solve()
		}
	}
}

// BenchmarkRecomputeWindowCapped is BenchmarkRecompute in the WAN
// slow-start regime of the ANL remote mount: 256 server-to-client conns
// cross a 10 Gb/s, 28 ms RTT trunk with initial windows of 64 KiB to
// 1 MiB, so the smaller windows cap their conns below the trunk's fair
// share and the water fill's cap sweep assigns them.
func BenchmarkRecomputeWindowCapped(b *testing.B) {
	s := sim.New()
	nw := New(s)
	sw1 := nw.NewNode("sw1")
	sw2 := nw.NewNode("sw2")
	nw.DuplexLink("trunk", sw1, sw2, 10*units.Gbps, 14*sim.Millisecond)
	var clients, servers []*Node
	for i := 0; i < 64; i++ {
		h := nw.NewNode(fmt.Sprintf("c%d", i))
		nw.DuplexLink(fmt.Sprintf("cl%d", i), h, sw1, units.Gbps, 50*sim.Microsecond)
		clients = append(clients, h)
	}
	for i := 0; i < 8; i++ {
		h := nw.NewNode(fmt.Sprintf("s%d", i))
		nw.DuplexLink(fmt.Sprintf("sl%d", i), h, sw2, 10*units.Gbps, 50*sim.Microsecond)
		servers = append(servers, h)
	}
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < 256; i++ {
			c := nw.DialTCP(servers[i%8], clients[i%64], TCPConfig{
				InitWindow: 64 * units.KiB << (i % 5),
				MaxWindow:  16 * units.MiB,
			})
			c.SendCtx(trace.Ctx{}, 100*units.GB, nil) // long-lived: stays active
		}
	})
	// Stop before the first window bump (one RTT in): every conn is
	// still at its initial window.
	s.RunUntil(sim.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range nw.busyLinks {
			nw.linkChanged(l)
		}
		for len(nw.dirtyLinks) > 0 {
			nw.solve()
		}
	}
}

// BenchmarkMessageThroughput measures simulator cost per delivered
// message under heavy small-message traffic.
func BenchmarkMessageThroughput(b *testing.B) {
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	c := nw.NewNode("b")
	nw.DuplexLink("ab", a, c, 10*units.Gbps, sim.Millisecond)
	conn := nw.DialTCP(a, c, TCPConfig{})
	delivered := 0
	b.ResetTimer()
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < b.N; i++ {
			conn.SendCtx(trace.Ctx{}, units.MiB, func() { delivered++ })
		}
	})
	s.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkRPCRoundTrip measures one steady-state blocking Call over a
// LAN pair: request and response transfers, the handler's process, and
// the call-record and message recycling around them.
func BenchmarkRPCRoundTrip(b *testing.B) {
	step := callLoop(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
