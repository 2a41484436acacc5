package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// TestFlowRecyclingGolden pins a workload built so that transfer state
// passes from conn to conn: 64 conns cross one WAN trunk, and four lanes
// each keep one of them busy at a time, moving to the lane's next conn
// when the previous transfer lands. Gaps between a lane's transfers are
// sometimes longer than the slow-start restart, and some transfers queue
// a second message behind the first. The digest covers every fired
// event's virtual time and every conn's Rate() bits after it, the way
// TestSolverGolden does, so a flow record that carried a rate, a queue
// position or a pending event from one conn to the next changes it. The
// digest was recorded before conns shed their idle-time transfer state.
func TestFlowRecyclingGolden(t *testing.T) {
	t.Parallel()
	const conns, lanes, rounds = 64, 4, 48
	rng := rand.New(rand.NewSource(7))
	s := sim.New()
	nw := New(s)
	sw1 := nw.NewNode("sw1")
	sw2 := nw.NewNode("sw2")
	nw.DuplexLink("trunk", sw1, sw2, 2*units.Gbps, 5*sim.Millisecond)
	var left, right []*Node
	for i := 0; i < 8; i++ {
		l := nw.NewNode(fmt.Sprintf("l%d", i))
		r := nw.NewNode(fmt.Sprintf("r%d", i))
		nw.DuplexLink(fmt.Sprintf("la%d", i), l, sw1, units.Gbps, 50*sim.Microsecond)
		nw.DuplexLink(fmt.Sprintf("ra%d", i), r, sw2, units.Gbps, 50*sim.Microsecond)
		left, right = append(left, l), append(right, r)
	}
	cs := make([]*Conn, conns)
	for i := range cs {
		src, dst := left[i%8], right[(i/8+i)%8]
		if i%3 == 1 {
			src, dst = dst, src
		}
		cs[i] = nw.DialTCP(src, dst, TCPConfig{
			MaxWindow:  units.Bytes(256+rng.Intn(4096)) * units.KiB,
			InitWindow: 64 * units.KiB,
		})
	}
	gaps := []sim.Time{0, sim.Millisecond, 100 * sim.Millisecond, 700 * sim.Millisecond}
	maxActive := 0
	var send func(lane, round int)
	send = func(lane, round int) {
		if round == rounds {
			return
		}
		c := cs[(round*lanes+lane)%conns]
		size := units.Bytes(1+rng.Intn(6<<20)) * 1
		if rng.Intn(4) == 0 {
			c.SendCtx(trace.Ctx{}, size/3, nil)
		}
		c.SendCtx(trace.Ctx{}, size, func() {
			s.Post(sim.KindOther, gaps[rng.Intn(len(gaps))], func() { send(lane, round+1) })
		})
	}
	for lane := 0; lane < lanes; lane++ {
		lane := lane
		s.Post(sim.KindOther, sim.Time(lane)*sim.Millisecond, func() { send(lane, 0) })
	}
	h := sha256.New()
	var buf [8]byte
	events := 0
	for s.Step() {
		events++
		binary.LittleEndian.PutUint64(buf[:], uint64(s.Now()))
		h.Write(buf[:])
		active := 0
		for _, c := range cs {
			r := float64(c.Rate())
			if c.Queued() > 0 {
				active++
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
			h.Write(buf[:])
		}
		maxActive = max(maxActive, active)
	}
	if maxActive != lanes {
		t.Fatalf("%d conns active at once at most, want %d", maxActive, lanes)
	}
	var sent units.Bytes
	for _, c := range cs {
		if c.Queued() != 0 || c.Rate() != 0 {
			t.Fatalf("conn %d idle with %d queued, rate %v", c.id, c.Queued(), c.Rate())
		}
		sent += c.BytesSent()
	}
	digest := fmt.Sprintf("%x", h.Sum(nil)[:12])
	solves := nw.SolverStats().FullSolves
	const wantEvents, wantDigest, wantSolves = 2663, "5fb83c88a87f3f8490462d63", 1183
	if events != wantEvents || digest != wantDigest || solves != wantSolves {
		t.Fatalf("got %d events, digest %s, %d solves (%d bytes); want %d, %s, %d",
			events, digest, solves, sent, wantEvents, wantDigest, wantSolves)
	}
}

// TestConnFootprint pins what a conn costs while idle: at most 128 bytes
// (a 128-byte size class), and a dial allocates the conn and its path
// and nothing else — transfer state waits for the first send.
func TestConnFootprint(t *testing.T) {
	t.Parallel()
	if sz := unsafe.Sizeof(Conn{}); sz > 128 {
		t.Fatalf("Conn is %d bytes, want at most 128", sz)
	}
	s := sim.New()
	nw := New(s)
	a, sw, b := nw.NewNode("a"), nw.NewNode("sw"), nw.NewNode("b")
	nw.DuplexLink("a", a, sw, units.Gbps, sim.Millisecond)
	nw.DuplexLink("b", sw, b, units.Gbps, sim.Millisecond)
	var c *Conn
	if n := testing.AllocsPerRun(100, func() { c = nw.Dial(a, b) }); n > 2 {
		t.Fatalf("Dial on a 2-hop path allocates %v times, want at most 2", n)
	}
	if len(c.Path()) != 2 || cap(c.Path()) != 2 {
		t.Fatalf("path %d/%d links, want 2/2", len(c.Path()), cap(c.Path()))
	}
	if c.Rate() != 0 || c.Queued() != 0 || c.f != nil {
		t.Fatal("a fresh conn holds transfer state")
	}
}
