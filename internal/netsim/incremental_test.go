package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// referenceRates runs the from-scratch progressive-filling max-min solve —
// the pre-incremental recomputeOnce algorithm — over every active conn and
// busy link, and returns the resulting allocation without disturbing the
// network's state.
func referenceRates(nw *Network) map[*Conn]float64 {
	conns := append([]*Conn(nil), nw.activeList...)
	links := nw.busyLinks
	residual := make(map[*Link]float64, len(links))
	nActive := make(map[*Link]int, len(links))
	for _, l := range links {
		r := l.cap
		if l.down {
			r = 0
		}
		residual[l] = r
		nActive[l] = len(l.conns)
	}
	rates := make(map[*Conn]float64, len(conns))
	assigned := make(map[*Conn]bool, len(conns))
	assign := func(c *Conn, r float64) {
		rates[c] = r
		assigned[c] = true
		for _, l := range c.path {
			residual[l] -= r
			if residual[l] < 0 {
				residual[l] = 0
			}
			nActive[l]--
		}
	}
	unassigned := len(conns)
	for unassigned > 0 {
		m := math.Inf(1)
		for _, l := range links {
			if nActive[l] > 0 {
				if s := residual[l] / float64(nActive[l]); s < m {
					m = s
				}
			}
		}
		fixedCap := false
		for _, c := range conns {
			if !assigned[c] && c.rateCap <= m {
				assign(c, c.rateCap)
				unassigned--
				fixedCap = true
			}
		}
		if fixedCap {
			continue
		}
		if math.IsInf(m, 1) {
			for _, c := range conns {
				if !assigned[c] {
					assign(c, c.rateCap)
					unassigned--
				}
			}
			break
		}
		progressed := false
		tol := m * (1 + 1e-9)
		for _, c := range conns {
			if assigned[c] {
				continue
			}
			share := math.Inf(1)
			for _, l := range c.path {
				if nActive[l] > 0 {
					if s := residual[l] / float64(nActive[l]); s < share {
						share = s
					}
				}
			}
			if share <= tol {
				assign(c, m)
				unassigned--
				progressed = true
			}
		}
		if !progressed {
			for _, c := range conns {
				if !assigned[c] {
					assign(c, m)
					unassigned--
				}
			}
		}
	}
	return rates
}

// checkAgainstReference compares every active conn's incrementally
// maintained rate with a from-scratch solve. Tolerance is relative: the
// incremental solver's float arithmetic is path-dependent (it subtracts
// residuals in a different order), so exact equality is too strict, but
// the fixed points of both solvers coincide to rounding error.
func checkAgainstReference(t *testing.T, nw *Network, label string) {
	t.Helper()
	want := referenceRates(nw)
	for _, c := range nw.activeList {
		w := want[c]
		got := c.rate
		if math.IsInf(w, 1) {
			if !math.IsInf(got, 1) {
				t.Fatalf("%s: conn %d rate %g, reference +Inf", label, c.id, got)
			}
			continue
		}
		diff := math.Abs(got - w)
		if diff > 1e-6*math.Max(math.Abs(w), 1) {
			t.Fatalf("%s: conn %d rate %g, reference %g (diff %g)", label, c.id, got, w, diff)
		}
	}
}

// checkCapIndex asserts the cap index invariant: strictly sorted by
// capLess, and holding exactly the active conns whose window cap can bind
// (rateCap <= pathCap).
func checkCapIndex(t *testing.T, nw *Network, label string) {
	t.Helper()
	for i := 1; i < len(nw.capIndex); i++ {
		if a, b := nw.capIndex[i-1], nw.capIndex[i]; !capLess(a, b) {
			t.Fatalf("%s: cap index out of order at %d: conn %d (cap %g) before conn %d (cap %g)",
				label, i, a.id, a.rateCap, b.id, b.rateCap)
		}
	}
	indexed := make(map[*Conn]bool, len(nw.capIndex))
	for _, c := range nw.capIndex {
		indexed[c] = true
	}
	for _, c := range nw.conns {
		if want := c.active && c.rateCap <= c.pathCap; indexed[c] != want {
			t.Fatalf("%s: conn %d indexed=%v, want %v (active=%v cap %g pathCap %g)",
				label, c.id, indexed[c], want, c.active, c.rateCap, c.pathCap)
		}
	}
}

// TestIncrementalMatchesFromScratch drives a seeded random workload —
// sends of varied sizes over a multi-switch topology, link failures and
// repairs, idle periods — and after every event checks that the
// incremental allocation equals a from-scratch solve.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := sim.New()
			nw := New(s)
			// Two switches, hosts split between them: mixes single-link,
			// shared-bottleneck, and cross-switch components.
			sw1 := nw.NewNode("sw1")
			sw2 := nw.NewNode("sw2")
			nw.DuplexLink("trunk", sw1, sw2, units.Gbps, sim.Millisecond)
			var hosts []*Node
			for i := 0; i < 8; i++ {
				h := nw.NewNode(fmt.Sprintf("h%d", i))
				sw := sw1
				if i >= 4 {
					sw = sw2
				}
				nw.DuplexLink(fmt.Sprintf("l%d", i), h, sw, units.Gbps, 100*sim.Microsecond)
				hosts = append(hosts, h)
			}
			var conns []*Conn
			for i := 0; i < 24; i++ {
				a, b := rng.Intn(8), rng.Intn(8)
				if a == b {
					b = (b + 1) % 8
				}
				conns = append(conns, nw.DialTCP(hosts[a], hosts[b], TCPConfig{
					MaxWindow:  units.Bytes(64+rng.Intn(512)) * units.KiB,
					InitWindow: 32 * units.KiB,
				}))
			}
			trunk := nw.links[0]
			for i := 0; i < 60; i++ {
				i := i
				at := sim.Time(rng.Intn(200)) * sim.Millisecond
				switch rng.Intn(10) {
				case 0:
					s.Post(sim.KindOther, at, func() { trunk.SetDown(true) })
				case 1:
					s.Post(sim.KindOther, at, func() { trunk.SetDown(false) })
				default:
					c := conns[rng.Intn(len(conns))]
					size := units.Bytes(1+rng.Intn(4<<20)) * 1
					s.Post(sim.KindOther, at, func() { c.SendCtx(trace.Ctx{}, size, nil) })
				}
				_ = i
			}
			// Check after every fired event once the frontier is clean:
			// mid-coalescing (a recompute kick is scheduled but not yet
			// run) rates are legitimately stale.
			steps := 0
			for s.Step() {
				steps++
				checkCapIndex(t, nw, fmt.Sprintf("step %d", steps))
				if len(nw.dirtyLinks) == 0 && !nw.recomputeScheduled {
					checkAgainstReference(t, nw, fmt.Sprintf("step %d", steps))
				}
			}
			if steps == 0 {
				t.Fatal("workload fired no events")
			}
			// Everything must drain.
			if len(nw.activeList) != 0 && !trunk.down {
				t.Fatalf("%d conns still active after drain", len(nw.activeList))
			}
		})
	}
}

// TestIncrementalWindowCapped is the slow-start twin of
// TestIncrementalMatchesFromScratch: a 25 ms trunk and 64 KiB initial /
// 16 MiB max windows keep caps far below the 1 Gb/s links while conns
// ramp, so the water fill's cap sweep does most of the assigning. Each
// conn sends a chain of transfers separated by gaps both shorter and
// longer than defaultRestartIdle, so conns enter the cap index on
// activation, move within it on every window bump, leave it when their
// window outgrows the path, restart slow start after a long idle and
// leave it on deactivation. After every event the index must hold its
// invariant and the rates must equal a from-scratch solve.
func TestIncrementalWindowCapped(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			s := sim.New()
			nw := New(s)
			sw1 := nw.NewNode("sw1")
			sw2 := nw.NewNode("sw2")
			nw.DuplexLink("trunk", sw1, sw2, units.Gbps, 25*sim.Millisecond)
			var hosts []*Node
			for i := 0; i < 8; i++ {
				h := nw.NewNode(fmt.Sprintf("h%d", i))
				sw := sw1
				if i >= 4 {
					sw = sw2
				}
				nw.DuplexLink(fmt.Sprintf("l%d", i), h, sw, units.Gbps, 100*sim.Microsecond)
				hosts = append(hosts, h)
			}
			tcp := TCPConfig{InitWindow: 64 * units.KiB, MaxWindow: 16 * units.MiB}
			gaps := []sim.Time{50 * sim.Millisecond, 200 * sim.Millisecond,
				800 * sim.Millisecond, 2 * sim.Second}
			var conns []*Conn
			for i := 0; i < 16; i++ {
				src, dst := hosts[rng.Intn(4)], hosts[4+rng.Intn(4)]
				if i%2 == 1 {
					src, dst = dst, src
				}
				c := nw.DialTCP(src, dst, tcp)
				conns = append(conns, c)
				at := sim.Time(rng.Intn(100)) * sim.Millisecond
				for k := 0; k < 6; k++ {
					size := units.Bytes(64+rng.Intn(16<<10)) * units.KiB
					s.Post(sim.KindOther, at, func() { c.SendCtx(trace.Ctx{}, size, nil) })
					at += gaps[rng.Intn(len(gaps))]
				}
			}
			init := float64(tcp.InitWindow)
			grown := make(map[*Conn]bool)
			var repositioned, outgrown, restarted bool
			steps := 0
			for s.Step() {
				steps++
				label := fmt.Sprintf("step %d", steps)
				checkCapIndex(t, nw, label)
				if len(nw.dirtyLinks) == 0 && !nw.recomputeScheduled {
					checkAgainstReference(t, nw, label)
				}
				for _, c := range conns {
					if !c.active {
						continue
					}
					switch {
					case c.cwnd == init && grown[c]:
						restarted = true
						grown[c] = false
					case c.cwnd > init:
						grown[c] = true
						if c.rateCap <= c.pathCap {
							repositioned = true
						} else {
							outgrown = true
						}
					}
				}
			}
			if len(nw.activeList) != 0 || len(nw.capIndex) != 0 {
				t.Fatalf("%d conns active, %d indexed after drain", len(nw.activeList), len(nw.capIndex))
			}
			if !repositioned || !outgrown || !restarted {
				t.Fatalf("workload missed a cap-index path: repositioned=%v outgrown=%v restarted=%v",
					repositioned, outgrown, restarted)
			}
		})
	}
}

// churnRig builds the same two-switch seeded workload as
// TestIncrementalMatchesFromScratch on a fresh simulator: 8 hosts split
// across two switches joined by a trunk, 24 conns, 60 events mixing sends
// of varied sizes with trunk failures and repairs. tune runs before any
// traffic so a test can adjust the network. Returns the sim, network,
// trunk link, conns and the total payload bytes queued.
func churnRig(seed int64, tune func(*Network)) (*sim.Sim, *Network, *Link, []*Conn, units.Bytes) {
	rng := rand.New(rand.NewSource(seed))
	s := sim.New()
	nw := New(s)
	if tune != nil {
		tune(nw)
	}
	sw1 := nw.NewNode("sw1")
	sw2 := nw.NewNode("sw2")
	nw.DuplexLink("trunk", sw1, sw2, units.Gbps, sim.Millisecond)
	var hosts []*Node
	for i := 0; i < 8; i++ {
		h := nw.NewNode(fmt.Sprintf("h%d", i))
		sw := sw1
		if i >= 4 {
			sw = sw2
		}
		nw.DuplexLink(fmt.Sprintf("l%d", i), h, sw, units.Gbps, 100*sim.Microsecond)
		hosts = append(hosts, h)
	}
	var conns []*Conn
	for i := 0; i < 24; i++ {
		a, b := rng.Intn(8), rng.Intn(8)
		if a == b {
			b = (b + 1) % 8
		}
		conns = append(conns, nw.DialTCP(hosts[a], hosts[b], TCPConfig{
			MaxWindow:  units.Bytes(64+rng.Intn(512)) * units.KiB,
			InitWindow: 32 * units.KiB,
		}))
	}
	trunk := nw.links[0]
	var total units.Bytes
	for i := 0; i < 60; i++ {
		at := sim.Time(rng.Intn(200)) * sim.Millisecond
		switch rng.Intn(10) {
		case 0:
			s.Post(sim.KindOther, at, func() { trunk.SetDown(true) })
		case 1:
			s.Post(sim.KindOther, at, func() { trunk.SetDown(false) })
		default:
			c := conns[rng.Intn(len(conns))]
			size := units.Bytes(1+rng.Intn(4<<20)) * 1
			total += size
			s.Post(sim.KindOther, at, func() { c.SendCtx(trace.Ctx{}, size, nil) })
		}
	}
	return s, nw, trunk, conns, total
}

// TestSolverGolden pins the solver's output on churnRig's seed-3
// workload. The fingerprint digests every fired event's virtual time
// together with every conn's allocated rate bits, so any divergence in
// solve order or float arithmetic changes it. The determinism gates diff
// two runs of one build, so they cannot see a refactor that moves an
// event; this golden digest can. The deprecated SolveTolerance field is
// ignored, so setting it must replay event for event. Update the digest
// only for a deliberate change of solver behaviour.
func TestSolverGolden(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		tune func(*Network)
	}{
		{"plain", nil},
		{"tol0.02", func(nw *Network) { nw.SolveTolerance = 0.02 }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, nw, _, conns, _ := churnRig(3, tc.tune)
			h := sha256.New()
			var buf [8]byte
			events := 0
			for s.Step() {
				events++
				binary.LittleEndian.PutUint64(buf[:], uint64(s.Now()))
				h.Write(buf[:])
				for _, c := range conns {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.rate))
					h.Write(buf[:])
				}
			}
			digest := fmt.Sprintf("%x", h.Sum(nil)[:12])
			solves := nw.SolverStats().FullSolves
			const wantEvents, wantDigest, wantSolves = 269, "71b757c7113b6ed498572067", 86
			if events != wantEvents || digest != wantDigest || solves != wantSolves {
				t.Fatalf("got %d events, digest %s, %d solves; want %d, %s, %d",
					events, digest, solves, wantEvents, wantDigest, wantSolves)
			}
		})
	}
}

// TestSendOnActiveConnSkipsSolve: queueing more bytes on an already-active
// conn leaves every allocated rate valid — the frontier must stay empty
// and no recompute event may be scheduled.
func TestSendOnActiveConnSkipsSolve(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.DuplexLink("ab", a, b, units.Gbps, sim.Millisecond)
	c := nw.DialTCP(a, b, TCPConfig{})
	s.Post(sim.KindOther, 0, func() { c.SendCtx(trace.Ctx{}, 64*units.MiB, nil) })
	// Let the first allocation settle.
	s.RunUntil(10 * sim.Millisecond)
	if !c.active || c.rate <= 0 {
		t.Fatalf("conn not streaming: active=%v rate=%g", c.active, c.rate)
	}
	before := c.rate
	s.Post(sim.KindOther, 0, func() {
		c.SendCtx(trace.Ctx{}, 64*units.MiB, nil)
		if len(nw.dirtyLinks) != 0 {
			t.Error("send on active conn dirtied links")
		}
		if nw.recomputeScheduled {
			t.Error("send on active conn scheduled a recompute")
		}
	})
	s.RunUntil(11 * sim.Millisecond)
	if c.rate != before {
		t.Fatalf("rate changed %g -> %g without membership change", before, c.rate)
	}
}
