package core

import (
	"fmt"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// opFunc is one op under measurement: it runs on mount m and its file f,
// beside peer, a second client's mount of the same filesystem.
type opFunc func(p *sim.Proc, m, peer *Mount, f *File) error

// opLoop mounts a one-block file on a fresh rig and starts a process that
// runs op on it forever, one call after another. It returns a step
// function that runs the simulator until one more call has returned. A
// gathering rig has one NSD, so a file's blocks sit on consecutive slots
// and join runs.
func opLoop(tb testing.TB, cfg ClientConfig, gather bool, op opFunc) func() {
	nsds := 2
	if gather {
		nsds = 1
	}
	r := newRig(tb, nsds, 0, 256*units.KiB)
	if gather {
		r.fs.EnableGather()
	}
	cl := r.addClient("a", cfg, Identity{DN: "/CN=a"})
	peerCl := r.addClient("b", cfg, Identity{DN: "/CN=b"})
	calls := 0
	r.s.Go("op", func(p *sim.Proc) {
		m, err := cl.MountLocal(p, r.fs)
		if err != nil {
			tb.Error(err)
			return
		}
		peer, err := peerCl.MountLocal(p, r.fs)
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
			if err := op(p, m, peer, f); err != nil {
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
func opAllocs(tb testing.TB, cfg ClientConfig, gather bool, op opFunc) float64 {
	step := opLoop(tb, cfg, gather, op)
	for i := 0; i < 16; i++ {
		step() // warm the pools
	}
	return testing.AllocsPerRun(200, step)
}

// grow extends f to size bytes once; later calls are free, so an op that
// needs a larger file grows it during warm-up.
func grow(p *sim.Proc, f *File, size units.Bytes) error {
	if f.Size() >= size {
		return nil
	}
	if err := f.WriteAt(p, 0, size); err != nil {
		return err
	}
	return f.Sync(p)
}

// TestRunOfOneAllocs pins the allocations of the single-block data path
// — a cold 1-block demand read, a cached read of the same block, and a
// one-page write-behind flush — and of four wider ops: a create, stat
// and remove round trip, a cached 1 MiB read, a batched 4-block
// prefetch, and a pair of exclusive token acquires that each revoke the
// other mount's token. A single-block fetch or flush is the run of one
// of the batched transfer, and must allocate nothing the run needs only
// for n > 1. The counts are exact: allocation is deterministic, so any
// change is a real change to the path.
func TestRunOfOneAllocs(t *testing.T) {
	cfg := DefaultClientConfig()
	cfg.ReadAhead = 0
	cfg.WriteBehind = 1
	cases := []struct {
		name   string
		want   float64
		gather bool
		op     opFunc
	}{
		{"cold-read", 10, false, func(p *sim.Proc, m, _ *Mount, f *File) error {
			m.DropCaches()
			return f.ReadAt(p, 0, m.BlockSize())
		}},
		{"cached-read", 2, false, func(p *sim.Proc, m, _ *Mount, f *File) error {
			return f.ReadAt(p, 0, m.BlockSize())
		}},
		{"writebehind-flush", 7, false, func(p *sim.Proc, m, _ *Mount, f *File) error {
			if err := f.WriteAt(p, 0, m.BlockSize()); err != nil {
				return err
			}
			m.wgFl.Wait(p)
			return nil
		}},
		{"create-stat-remove", 17, false, func(p *sim.Proc, m, _ *Mount, _ *File) error {
			if _, err := m.Create(p, "/rt", DefaultPerm); err != nil {
				return err
			}
			if _, err := m.Stat(p, "/rt"); err != nil {
				return err
			}
			return m.Remove(p, "/rt")
		}},
		{"cached-1MiB-read", 4, false, func(p *sim.Proc, _, _ *Mount, f *File) error {
			if err := grow(p, f, units.MiB); err != nil {
				return err
			}
			return f.ReadAt(p, 0, units.MiB)
		}},
		{"batched-prefetch", 22, true, func(p *sim.Proc, m, _ *Mount, f *File) error {
			if err := grow(p, f, 4*m.BlockSize()); err != nil {
				return err
			}
			m.DropCaches()
			before := m.st.BatchedFetches
			m.prefetchBatch(f, 0, 3, false)
			if m.st.BatchedFetches != before+1 {
				return fmt.Errorf("4-block prefetch took %d batched fetches, want 1", m.st.BatchedFetches-before)
			}
			return m.waitPage(p, m.pool.get(pageKey{ino: f.ino, idx: 3}))
		}},
		{"revoking-acquire", 36, false, func(p *sim.Proc, m, peer *Mount, f *File) error {
			bs := m.BlockSize()
			fs := m.c.cluster.fss[m.Device]
			before := fs.st.TokenRevokes
			if err := peer.acquireToken(p, f.ino, 0, bs, TokExclusive); err != nil {
				return err
			}
			if err := m.acquireToken(p, f.ino, 0, bs, TokExclusive); err != nil {
				return err
			}
			if n := fs.st.TokenRevokes - before; n != 2 {
				return fmt.Errorf("acquire pair revoked %d tokens, want 2", n)
			}
			return nil
		}},
	}
	for _, c := range cases {
		got := opAllocs(t, cfg, c.gather, c.op)
		t.Logf("%s: %.2f allocs/op", c.name, got)
		if got != c.want {
			t.Errorf("%s allocates %.2f objects per op, want %.0f", c.name, got, c.want)
		}
	}
}
