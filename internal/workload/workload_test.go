package workload_test

import (
	"testing"

	"gfs/internal/core"
	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
	"gfs/internal/workload"
)

// rig builds a small single-site system for workload tests.
type rig struct {
	s    *sim.Sim
	nw   *netsim.Network
	site *experiments.Site
}

func newRig(t testing.TB, servers, clients int) *rig {
	t.Helper()
	s := sim.New()
	nw := netsim.New(s)
	site := experiments.Env{}.NewSite(s, nw, "lab")
	site.BuildFS(experiments.FSOptions{
		Name: "fs", BlockSize: units.MiB,
		Servers: servers, ServerEth: units.Gbps,
		StoreRate: 400 * units.MBps, StoreCap: units.TB, StoreStreams: 4,
	})
	site.AddClients(clients, units.Gbps, core.DefaultClientConfig())
	return &rig{s: s, nw: nw, site: site}
}

func (r *rig) run(t testing.TB, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	done := false
	r.s.Go("t", func(p *sim.Proc) { err = fn(p); done = true })
	r.s.Run()
	if !done {
		t.Fatal("deadlock")
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnzoWritesAllDumps(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 1)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.site.Clients[0].MountLocal(p, r.site.FS)
		if err != nil {
			return err
		}
		e := &workload.Enzo{
			Mount: m, Dir: "/run", Dumps: 2, FilesPer: 3,
			FileSize: 16 * units.MiB, IOSize: 4 * units.MiB,
			ComputeTime: sim.Second,
		}
		res, err := e.Run(p)
		if err != nil {
			return err
		}
		if res.Bytes != 2*3*16*units.MiB {
			t.Errorf("bytes = %v", res.Bytes)
		}
		names := e.DumpNames()
		if len(names) != 6 {
			t.Errorf("dump names = %d", len(names))
		}
		for _, n := range names {
			a, err := m.Stat(p, n)
			if err != nil {
				return err
			}
			if a.Size != 16*units.MiB {
				t.Errorf("%s size = %v", n, a.Size)
			}
		}
		// Compute time excluded from I/O elapsed.
		if res.Elapsed >= p.Now() {
			t.Errorf("elapsed %v not less than wall %v", res.Elapsed, p.Now())
		}
		return nil
	})
}

func TestVizReadsEverything(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 3)
	r.run(t, func(p *sim.Proc) error {
		m0, err := r.site.Clients[0].MountLocal(p, r.site.FS)
		if err != nil {
			return err
		}
		e := &workload.Enzo{Mount: m0, Dir: "/run", Dumps: 1, FilesPer: 4,
			FileSize: 8 * units.MiB, IOSize: 4 * units.MiB}
		if _, err := e.Run(p); err != nil {
			return err
		}
		var mounts []*core.Mount
		for _, cl := range r.site.Clients[1:] {
			m, err := cl.MountLocal(p, r.site.FS)
			if err != nil {
				return err
			}
			mounts = append(mounts, m)
		}
		v := &workload.Viz{Mounts: mounts, Files: e.DumpNames(), IOSize: 2 * units.MiB}
		res, err := v.Run(p)
		if err != nil {
			return err
		}
		if res.Bytes != 4*8*units.MiB {
			t.Errorf("viz read %v, want 32MiB", res.Bytes)
		}
		if res.Rate() <= 0 {
			t.Error("zero rate")
		}
		return nil
	})
}

func TestSorterMovesBothDirections(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.site.Clients[0].MountLocal(p, r.site.FS)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/input", core.DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteAt(p, 0, 16*units.MiB); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		so := &workload.Sorter{Mount: m, Input: "/input", Output: "/output", OutputSize: 16 * units.MiB, IOSize: 4 * units.MiB}
		res, err := so.Run(p)
		if err != nil {
			return err
		}
		if res.Bytes != 32*units.MiB { // read + write
			t.Errorf("sorter moved %v", res.Bytes)
		}
		a, err := m.Stat(p, "/output")
		if err != nil {
			return err
		}
		if a.Size != 16*units.MiB {
			t.Errorf("output size %v", a.Size)
		}
		return nil
	})
}

func TestNVOQueriesWithinBounds(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.site.Clients[0].MountLocal(p, r.site.FS)
		if err != nil {
			return err
		}
		var files []string
		for i := 0; i < 3; i++ {
			name := "/cat" + string(rune('A'+i))
			f, err := m.Create(p, name, core.DefaultPerm)
			if err != nil {
				return err
			}
			if err := f.WriteAt(p, 0, 32*units.MiB); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
			files = append(files, name)
		}
		n := &workload.NVO{Mount: m, Files: files, Queries: 50, QuerySize: units.MiB, Seed: 9}
		res, err := n.Run(p)
		if err != nil {
			return err
		}
		if res.Ops != 50 || res.Bytes != 50*units.MiB {
			t.Errorf("nvo ops=%d bytes=%v", res.Ops, res.Bytes)
		}
		return nil
	})
}

func TestNVODeterministicSeed(t *testing.T) {
	t.Parallel()
	run := func() sim.Time {
		r := newRig(t, 2, 1)
		var el sim.Time
		r.run(t, func(p *sim.Proc) error {
			m, _ := r.site.Clients[0].MountLocal(p, r.site.FS)
			f, _ := m.Create(p, "/cat", core.DefaultPerm)
			if err := f.WriteAt(p, 0, 64*units.MiB); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
			n := &workload.NVO{Mount: m, Files: []string{"/cat"}, Queries: 30, QuerySize: units.MiB, Seed: 4}
			res, err := n.Run(p)
			el = res.Elapsed
			return err
		})
		return el
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different durations: %v vs %v", a, b)
	}
}

func TestMPIIOWriteThenRead(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 4)
	r.run(t, func(p *sim.Proc) error {
		var mounts []*core.Mount
		for _, cl := range r.site.Clients {
			m, err := cl.MountLocal(p, r.site.FS)
			if err != nil {
				return err
			}
			mounts = append(mounts, m)
		}
		w := &workload.MPIIO{
			Mounts: mounts, Path: "/ior",
			SizePer: 16 * units.MiB, BlockSize: 4 * units.MiB, Transfer: units.MiB,
			Write: true,
		}
		res, err := w.Run(p)
		if err != nil {
			return err
		}
		if res.Bytes != 64*units.MiB {
			t.Errorf("wrote %v", res.Bytes)
		}
		a, err := mounts[0].Stat(p, "/ior")
		if err != nil {
			return err
		}
		if a.Size != 64*units.MiB {
			t.Errorf("file size %v", a.Size)
		}
		rd := &workload.MPIIO{
			Mounts: mounts, Path: "/ior",
			SizePer: 16 * units.MiB, BlockSize: 4 * units.MiB, Transfer: units.MiB,
		}
		rres, err := rd.Run(p)
		if err != nil {
			return err
		}
		if rres.Bytes != 64*units.MiB {
			t.Errorf("read %v", rres.Bytes)
		}
		return nil
	})
}

func TestMPIIODisjointWritersDontRevoke(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 4)
	r.run(t, func(p *sim.Proc) error {
		cfg := core.DefaultClientConfig()
		cfg.TokenChunk = 4 // exactly one MPI block (4 MiB / 1 MiB blocks)
		var mounts []*core.Mount
		for i := 0; i < 4; i++ {
			cl := r.site.AddClients(1, units.Gbps, cfg)[0]
			m, err := cl.MountLocal(p, r.site.FS)
			if err != nil {
				return err
			}
			mounts = append(mounts, m)
		}
		w := &workload.MPIIO{
			Mounts: mounts, Path: "/ior2",
			SizePer: 16 * units.MiB, BlockSize: 4 * units.MiB, Transfer: units.MiB,
			Write: true,
		}
		if _, err := w.Run(p); err != nil {
			return err
		}
		_, revokes := r.site.FS.TokenStats()
		if revokes > 4 {
			t.Errorf("%d token revocations for disjoint writers", revokes)
		}
		return nil
	})
}

func TestMPIIOErrors(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.site.Clients[0].MountLocal(p, r.site.FS)
		bad := &workload.MPIIO{Mounts: nil, Path: "/x", SizePer: units.MiB, BlockSize: units.MiB, Transfer: units.MiB}
		if _, err := bad.Run(p); err == nil {
			t.Error("no-task MPIIO succeeded")
		}
		bad2 := &workload.MPIIO{Mounts: []*core.Mount{m}, Path: "/x", SizePer: 0, BlockSize: units.MiB, Transfer: units.MiB}
		if _, err := bad2.Run(p); err == nil {
			t.Error("zero-size MPIIO succeeded")
		}
		// Read of a missing file fails.
		bad3 := &workload.MPIIO{Mounts: []*core.Mount{m}, Path: "/missing", SizePer: units.MiB, BlockSize: units.MiB, Transfer: units.MiB}
		if _, err := bad3.Run(p); err == nil {
			t.Error("read of missing file succeeded")
		}
		return nil
	})
}

// TestStreamClipsLastChunk: a size that is not a multiple of the I/O size
// ends in one short request, on the write and the read side alike, and a
// Sorter writes the output size it is given, not its input's.
func TestStreamClipsLastChunk(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.site.Clients[0].MountLocal(p, r.site.FS)
		if err != nil {
			return err
		}
		size := 5*units.MiB + units.KiB
		f, err := m.Create(p, "/odd", core.DefaultPerm)
		if err != nil {
			return err
		}
		w, err := workload.WriteAll(p, f, size, 2*units.MiB)
		if err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		rd, err := workload.ReadAll(p, f, 2*units.MiB)
		if err != nil {
			return err
		}
		for _, got := range []workload.Result{w, rd} {
			if got.Bytes != size || got.Ops != 3 {
				t.Errorf("moved %v in %d requests, want %v in 3", got.Bytes, got.Ops, size)
			}
		}
		so := &workload.Sorter{Mount: m, Input: "/odd", Output: "/sorted", OutputSize: 3 * units.MiB, IOSize: 2 * units.MiB}
		res, err := so.Run(p)
		if err != nil {
			return err
		}
		if res.Bytes != size+3*units.MiB || res.Ops != 5 {
			t.Errorf("sorter moved %v in %d requests, want %v in 5", res.Bytes, res.Ops, size+3*units.MiB)
		}
		a, err := m.Stat(p, "/sorted")
		if err != nil {
			return err
		}
		if a.Size != 3*units.MiB {
			t.Errorf("output size %v, want 3MiB", a.Size)
		}
		so.OutputSize = 0
		if _, err := so.Run(p); err == nil {
			t.Error("Sorter without an output size succeeded")
		}
		if _, err := workload.ReadAll(p, f, 0); err == nil {
			t.Error("ReadAll with a zero I/O size succeeded")
		}
		return nil
	})
}
