package san

import (
	"errors"
	"testing"

	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// errNotDone stands in for the error of an I/O whose completion never
// ran.
var errNotDone = errors.New("never completed")

func testFabric() (*sim.Sim, *Fabric, *netsim.Node) {
	s := sim.New()
	nw := netsim.New(s)
	nw.DefaultTCP = netsim.TCPConfig{} // FC has link-level flow control, no TCP window
	f := NewFabric(s, nw)
	sw := f.Switch("core")
	return s, f, sw
}

func TestDS4100Shape(t *testing.T) {
	t.Parallel()
	s, f, sw := testFabric()
	a := f.NewArray("ds0", sw, DS4100Config())
	if len(a.Sets) != 7 {
		t.Errorf("sets = %d, want 7", len(a.Sets))
	}
	if len(a.Spares) != 4 {
		t.Errorf("spares = %d, want 4", len(a.Spares))
	}
	// 7 sets x 9 + 4 spares = 67 drives, the paper's count.
	drives := 7*9 + len(a.Spares)
	if drives != 67 {
		t.Errorf("drives = %d, want 67", drives)
	}
	// Usable: 7 x 8 x 250 GB = 14 TB per enclosure.
	if a.Capacity() != 14*units.TB {
		t.Errorf("capacity = %v, want 14TB", a.Capacity())
	}
	if a.RawCapacity() != units.Bytes(67*250)*units.GB {
		t.Errorf("raw = %v", a.RawCapacity())
	}
	_ = s
}

func TestLUNControllerSplit(t *testing.T) {
	t.Parallel()
	_, f, sw := testFabric()
	a := f.NewArray("ds0", sw, DS4100Config())
	if a.LUNController(0) != a.Controller(0) || a.LUNController(1) != a.Controller(1) {
		t.Error("LUNs do not alternate controllers")
	}
	if a.LUNController(2) != a.Controller(0) {
		t.Error("LUN 2 should prefer controller A")
	}
}

func TestReadLUNMovesData(t *testing.T) {
	t.Parallel()
	s, f, sw := testFabric()
	a := f.NewArray("ds0", sw, DS4100Config())
	host := f.Net.NewNode("host")
	f.AttachHBA(host, sw, FC2, 1)
	ep := f.Net.NewEndpoint(host, 2)
	err := errNotDone
	s.Post(sim.KindOther, 0, func() {
		a.GoReadLUN(ep, trace.Ctx{}, 0, 0, 8*units.MiB, func(e error) { err = e })
	})
	s.Run()
	if err != nil {
		t.Fatalf("GoReadLUN: %v", err)
	}
	// 8 MiB over a 2 Gb/s HBA takes >= 33 ms plus disk time.
	if s.Now() < 33*sim.Millisecond {
		t.Errorf("read completed in %v, faster than the FC wire", s.Now())
	}
	if s.Now() > 500*sim.Millisecond {
		t.Errorf("read took %v, suspiciously slow", s.Now())
	}
}

func TestWriteLUNError(t *testing.T) {
	t.Parallel()
	s, f, sw := testFabric()
	a := f.NewArray("ds0", sw, DS4100Config())
	host := f.Net.NewNode("host")
	f.AttachHBA(host, sw, FC2, 1)
	ep := f.Net.NewEndpoint(host, 1)
	err := errNotDone
	s.Post(sim.KindOther, 0, func() {
		a.GoWriteLUN(ep, trace.Ctx{}, 99, 0, units.MiB, func(e error) { err = e })
	})
	s.Run()
	if err == errNotDone {
		t.Fatal("write to missing LUN never completed")
	}
	if err == nil {
		t.Fatal("write to missing LUN succeeded")
	}
}

func TestControllerBandwidthCapsAggregate(t *testing.T) {
	t.Parallel()
	// All-LUN reads through one controller cannot exceed its 2 Gb/s FC.
	s, f, sw := testFabric()
	a := f.NewArray("ds0", sw, DS4100Config())
	host := f.Net.NewNode("host")
	f.AttachHBA(host, sw, FC4, 2) // host side not the bottleneck
	ep := f.Net.NewEndpoint(host, 4)
	total := units.Bytes(0)
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < 8; i++ {
			// LUN 0 only => controller A only.
			a.GoReadLUN(ep, trace.Ctx{}, 0, units.Bytes(0), 32*units.MiB, func(err error) {
				if err != nil {
					t.Errorf("read: %v", err)
				}
			})
			total += 32 * units.MiB
		}
	})
	s.Run()
	rate := float64(total) / s.Now().Seconds()
	ctrlBytes := 250e6 // 2 Gb/s
	if rate > ctrlBytes*1.02 {
		t.Errorf("aggregate %.0f B/s exceeds controller FC %0.f B/s", rate, ctrlBytes)
	}
	if rate < ctrlBytes*0.5 {
		t.Errorf("aggregate %.0f B/s far below controller FC; pipeline broken?", rate)
	}
}

func TestPipelinedReadsOverlapDiskAndWire(t *testing.T) {
	t.Parallel()
	s, f, sw := testFabric()
	a := f.NewArray("ds0", sw, DS4100Config())
	host := f.Net.NewNode("host")
	f.AttachHBA(host, sw, FC2, 1)
	ep := f.Net.NewEndpoint(host, 4)
	done := 0
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < 16; i++ {
			lun := i % len(a.Sets)
			a.GoReadLUN(ep, trace.Ctx{}, lun, units.Bytes(i)*units.MiB, units.MiB, func(err error) {
				if err != nil {
					t.Errorf("read: %v", err)
				}
				done++
			})
		}
	})
	s.Run()
	if done != 16 {
		t.Fatalf("done = %d of 16", done)
	}
	// 16 MiB over 2 Gb/s is ~67 ms; allow disk overhead but require overlap
	// (serial disk alone would be ~16 x ~14 ms = 220 ms + wire).
	if s.Now() > 200*sim.Millisecond {
		t.Errorf("pipelined reads took %v", s.Now())
	}
}

func TestISLAndMultiSwitchPath(t *testing.T) {
	t.Parallel()
	s, f, _ := testFabric()
	swA := f.Switch("a")
	swB := f.Switch("b")
	f.ISL(swA, swB, FC2, 4)
	a := f.NewArray("ds0", swB, DS4100Config())
	host := f.Net.NewNode("host")
	f.AttachHBA(host, swA, FC2, 1)
	ep := f.Net.NewEndpoint(host, 1)
	err := errNotDone
	s.Post(sim.KindOther, 0, func() {
		a.GoReadLUN(ep, trace.Ctx{}, 0, 0, units.MiB, func(e error) { err = e })
	})
	s.Run()
	if err != nil {
		t.Fatalf("cross-switch read: %v", err)
	}
}

func TestSwitchIsMemoized(t *testing.T) {
	t.Parallel()
	_, f, _ := testFabric()
	if f.Switch("x") != f.Switch("x") {
		t.Error("Switch(name) should return the same node")
	}
}
