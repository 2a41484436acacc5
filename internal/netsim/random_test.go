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
			if r.conn.Queued() != 0 || r.conn.f != nil {
				return false
			}
		}
		// All links idle at the end.
		for _, l := range nw.Links() {
			if l.ActiveConns() != 0 {
				return false
			}
		}
		return len(nw.busyLinks) == 0 && len(nw.activeList) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
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

// bfsHops is the reference for distTo: a fresh reverse BFS from dst over
// every link, returning hops[n] from node n to dst (-1 if unreachable).
func bfsHops(nw *Network, dst *Node) []int32 {
	hops := make([]int32, len(nw.nodes))
	for i := range hops {
		hops[i] = -1
	}
	hops[dst.id] = 0
	for frontier := []*Node{dst}; len(frontier) > 0; {
		var next []*Node
		for _, n := range frontier {
			for _, l := range nw.links {
				if l.Dst == n && hops[l.Src.id] < 0 {
					hops[l.Src.id] = hops[n.id] + 1
					next = append(next, l.Src)
				}
			}
		}
		frontier = next
	}
	return hops
}

// checkDistTo compares distTo's table toward every node with a fresh
// BFS and returns how many tables were shared from an uplink.
func checkDistTo(t *testing.T, nw *Network, label string) (shared int) {
	t.Helper()
	for _, dst := range nw.nodes {
		want := bfsHops(nw, dst)
		got := nw.distTo(dst)
		for _, n := range nw.nodes {
			if h := got.hops(n.id); h != want[n.id] {
				t.Fatalf("%s: hops %s -> %s = %d, BFS says %d", label, n, dst, h, want[n.id])
			}
		}
		if got.plus != 0 {
			shared++
		}
	}
	return shared
}

// TestDistToMatchesBFS: a hop table read through a destination's sole
// uplink equals a fresh BFS toward that destination from every node —
// on random ring-and-chord topologies (hosts on one uplink, switches on
// several, sometimes a switch whose only neighbour is another switch)
// and on a two-level switch fabric with single-homed and dual-homed
// hosts.
func TestDistToMatchesBFS(t *testing.T) {
	t.Parallel()
	shared := 0
	for seed := int64(1); seed <= 40; seed++ {
		nw, _ := buildRandomTopology(sim.New(), rand.New(rand.NewSource(seed)))
		shared += checkDistTo(t, nw, fmt.Sprintf("random seed %d", seed))
	}
	if shared == 0 {
		t.Fatal("no random topology shared a table")
	}

	nw := New(sim.New())
	var cores, edges []*Node
	for i := 0; i < 2; i++ {
		cores = append(cores, nw.NewNode(fmt.Sprintf("core%d", i)))
	}
	for i := 0; i < 4; i++ {
		e := nw.NewNode(fmt.Sprintf("edge%d", i))
		for _, c := range cores {
			nw.DuplexLink(fmt.Sprintf("%s-%s", e, c), e, c, 10*units.Gbps, sim.Microsecond)
		}
		edges = append(edges, e)
	}
	for i := 0; i < 16; i++ {
		h := nw.NewNode(fmt.Sprintf("h%d", i))
		e := edges[i%4]
		nw.DuplexLink(fmt.Sprintf("h%d-a", i), h, e, units.Gbps, sim.Microsecond)
		switch i % 4 {
		case 1: // two parallel links to one switch: still one uplink
			nw.DuplexLink(fmt.Sprintf("h%d-b", i), h, e, units.Gbps, sim.Microsecond)
		case 2: // dual-homed: a table of its own
			nw.DuplexLink(fmt.Sprintf("h%d-b", i), h, edges[(i+1)%4], units.Gbps, sim.Microsecond)
		}
	}
	if got := checkDistTo(t, nw, "fabric"); got != 12 {
		t.Fatalf("fabric shared %d tables, want the 12 single-uplink hosts'", got)
	}
}
