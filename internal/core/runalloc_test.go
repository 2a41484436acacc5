package core

import (
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// opLoop mounts a one-block file on a fresh rig and starts a process that
// runs op on it forever, one call after another. It returns a step
// function that runs the simulator until one more call has returned.
func opLoop(tb testing.TB, cfg ClientConfig, op func(p *sim.Proc, m *Mount, f *File) error) func() {
	r := newRig(tb, 2, 0, 256*units.KiB)
	cl := r.addClient("a", cfg, Identity{DN: "/CN=a"})
	calls := 0
	r.s.Go("op", func(p *sim.Proc) {
		m, err := cl.MountLocal(p, r.fs)
		if err != nil {
			tb.Error(err)
			return
		}
		f, err := m.Create(p, "/one", DefaultPerm)
		if err == nil {
			err = f.WriteAt(p, 0, m.BlockSize())
		}
		if err == nil {
			err = f.Sync(p)
		}
		if err != nil {
			tb.Error(err)
			return
		}
		for {
			if err := op(p, m, f); err != nil {
				tb.Error(err)
				return
			}
			calls++
			p.Sleep(0) // hand the step back even when op never blocks
		}
	})
	return func() {
		for want := calls + 1; calls < want; {
			if !r.s.Step() {
				tb.Fatal("simulator drained mid-op")
			}
		}
	}
}

// opAllocs is the steady-state allocation count of one op.
func opAllocs(tb testing.TB, cfg ClientConfig, op func(p *sim.Proc, m *Mount, f *File) error) float64 {
	step := opLoop(tb, cfg, op)
	for i := 0; i < 16; i++ {
		step() // warm the pools
	}
	return testing.AllocsPerRun(200, step)
}

// TestRunOfOneAllocs pins the allocations of the single-block data path:
// a cold 1-block demand read, a cached read of the same block, and a
// one-page write-behind flush. A single-block fetch or flush is the run
// of one of the batched transfer, and must allocate nothing the run
// needs only for n > 1. The counts are exact: allocation is
// deterministic, so any change is a real change to the path.
func TestRunOfOneAllocs(t *testing.T) {
	cfg := DefaultClientConfig()
	cfg.ReadAhead = 0
	cfg.WriteBehind = 1
	cases := []struct {
		name string
		want float64
		op   func(p *sim.Proc, m *Mount, f *File) error
	}{
		{"cold-read", 12, func(p *sim.Proc, m *Mount, f *File) error {
			m.DropCaches()
			return f.ReadAt(p, 0, m.BlockSize())
		}},
		{"cached-read", 2, func(p *sim.Proc, m *Mount, f *File) error {
			return f.ReadAt(p, 0, m.BlockSize())
		}},
		{"writebehind-flush", 9, func(p *sim.Proc, m *Mount, f *File) error {
			if err := f.WriteAt(p, 0, m.BlockSize()); err != nil {
				return err
			}
			m.wgFl.Wait(p)
			return nil
		}},
	}
	for _, c := range cases {
		got := opAllocs(t, cfg, c.op)
		t.Logf("%s: %.2f allocs/op", c.name, got)
		if got != c.want {
			t.Errorf("%s allocates %.2f objects per op, want %.0f", c.name, got, c.want)
		}
	}
}
