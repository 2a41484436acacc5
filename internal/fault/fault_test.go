package fault_test

import (
	"bytes"
	"fmt"
	"testing"

	"gfs/internal/auth"
	"gfs/internal/core"
	"gfs/internal/disk"
	"gfs/internal/fault"
	"gfs/internal/netsim"
	"gfs/internal/raid"
	"gfs/internal/sim"
	"gfs/internal/units"
)

func smallDisk(s *sim.Sim, name string) *disk.Disk {
	return disk.New(s, name, disk.Params{
		Capacity:       64 * units.MiB,
		SeekAvg:        sim.Millisecond,
		RotationalHalf: sim.Millisecond,
		TransferRate:   60 * units.MBps,
	})
}

func testPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// TestDegradedReadsSurviveDiskFailure runs a full client/server stack on
// top of a RAID-5 store, scripts a member-disk failure followed by a
// rebuild onto a spare, and checks reads stay byte-correct throughout:
// degraded (parity-reconstructed) reads during the failure window, and a
// healthy set once the rebuild completes.
func TestDegradedReadsSurviveDiskFailure(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := netsim.New(s)
	cluster := core.NewCluster(s, nw, "sdsc", auth.AuthOnly)
	fs := cluster.CreateFS("gpfs0", 256*units.KiB)
	sw := nw.NewNode("eth")

	srvNode := nw.NewNode("nsd0")
	nw.DuplexLink("nsd0-eth", srvNode, sw, units.Gbps, 50*sim.Microsecond)
	srv := fs.AddServer("srv0", srvNode, 2)
	var members []*disk.Disk
	for i := 0; i < 5; i++ {
		members = append(members, smallDisk(s, fmt.Sprintf("d%d", i)))
	}
	set := raid.NewSet(s, "r5", members, 256*units.KiB)
	spare := smallDisk(s, "spare")
	fs.AddNSD("nsd0", core.RAIDStore{Set: set}, srv)

	mgrNode := nw.NewNode("mgr")
	nw.DuplexLink("mgr-eth", mgrNode, sw, units.Gbps, 50*sim.Microsecond)
	fs.SetManager(mgrNode, 2)

	cNode := nw.NewNode("client")
	nw.DuplexLink("cl-eth", cNode, sw, units.Gbps, 50*sim.Microsecond)
	cl := core.NewClient(cluster, "c0", cNode, core.DefaultClientConfig(),
		core.Identity{DN: "/O=SDSC/CN=user"})

	// Disk 2 dies at t=2s; the rebuild onto the spare starts at t=4s.
	fault.NewPlan("disk-loss").
		DiskFail(2*sim.Second, "r5", set, 2).
		Rebuild(4*sim.Second, "r5", set, spare).
		Install(s)

	data := testPattern(int(8*units.MiB), 3)
	var tErr error
	s.Go("workload", func(p *sim.Proc) {
		tErr = func() error {
			m, err := cl.MountLocal(p, fs)
			if err != nil {
				return err
			}
			f, err := m.Create(p, "/data", core.DefaultPerm)
			if err != nil {
				return err
			}
			if err := f.WriteBytesAt(p, 0, data); err != nil {
				return err
			}
			if err := f.Sync(p); err != nil {
				return err
			}
			// Into the degraded window: the failed member's strips must be
			// reconstructed from parity, transparently to the reader.
			p.Sleep(3*sim.Second - p.Now())
			if !set.Degraded() {
				return fmt.Errorf("set not degraded after scripted disk failure")
			}
			m.DropCaches()
			got, err := f.ReadBytesAt(p, 0, units.Bytes(len(data)))
			if err != nil {
				return fmt.Errorf("degraded read: %v", err)
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("degraded read returned wrong bytes")
			}
			// Wait out the rebuild, then verify the set is healthy and
			// still byte-correct with the spare swapped in.
			p.Sleep(12*sim.Second - p.Now())
			if set.Degraded() {
				return fmt.Errorf("set still degraded after rebuild")
			}
			m.DropCaches()
			got, err = f.ReadBytesAt(p, 0, units.Bytes(len(data)))
			if err != nil {
				return fmt.Errorf("post-rebuild read: %v", err)
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("post-rebuild read returned wrong bytes")
			}
			return nil
		}()
	})
	s.Run()
	if tErr != nil {
		t.Fatal(tErr)
	}
	if spare.BytesWritten() == 0 {
		t.Error("rebuild wrote nothing to the spare")
	}
}

// TestPlanSchedulesInOrder checks composed plans fire each event at its
// scripted virtual time, that LinkFlap expands to the right down/up
// cycle, and that installing a past event panics.
func TestPlanSchedulesInOrder(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := netsim.New(s)
	a, b := nw.NewNode("a"), nw.NewNode("b")
	fwd, _ := nw.DuplexLink("ab", a, b, units.Gbps, sim.Millisecond)

	var fired []string
	mark := func(name string) func(*sim.Sim) {
		return func(s *sim.Sim) {
			fired = append(fired, fmt.Sprintf("%s@%dms", name, s.Now()/sim.Millisecond))
		}
	}
	p := fault.NewPlan("drill").
		At(5*sim.Millisecond, "first", mark("first")).
		LinkFlap(10*sim.Millisecond, 2, 10*sim.Millisecond, 20*sim.Millisecond, fwd).
		At(15*sim.Millisecond, "mid", mark("mid"))
	if p.Name() != "drill" {
		t.Errorf("plan name = %q", p.Name())
	}
	// first + mid + 2 flaps x (down+up).
	if p.Len() != 6 {
		t.Errorf("plan has %d events, want 6", p.Len())
	}
	var downs []sim.Time
	s.Go("watch", func(proc *sim.Proc) {
		last := fwd.Down()
		for proc.Now() < 80*sim.Millisecond {
			proc.Sleep(sim.Millisecond)
			if d := fwd.Down(); d != last {
				last = d
				if d {
					downs = append(downs, proc.Now())
				}
			}
		}
	})
	p.Install(s)
	s.Run()
	want := []string{"first@5ms", "mid@15ms"}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("events fired %v, want %v", fired, want)
	}
	// Flap cycle: down at 10 and 40 (10 down + 20 up + repeat).
	if len(downs) != 2 || downs[0] > 11*sim.Millisecond || downs[1] > 41*sim.Millisecond {
		t.Errorf("link down transitions at %v, want ~[10ms 40ms]", downs)
	}
	if fwd.Down() {
		t.Error("link left down after the flap cycle")
	}

	defer func() {
		if recover() == nil {
			t.Error("installing a past event did not panic")
		}
	}()
	fault.NewPlan("late").At(sim.Millisecond, "too-late", mark("x")).Install(s)
}
