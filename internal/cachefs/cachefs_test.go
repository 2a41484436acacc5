package cachefs_test

import (
	"fmt"
	"testing"

	"gfs/internal/auth"
	"gfs/internal/cachefs"
	"gfs/internal/core"
	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// cacheRig: a central "library" site and an edge site 30 ms away, with the
// edge client holding both a local mount (cache tier) and a remote mount.
type cacheRig struct {
	s       *sim.Sim
	library *experiments.Site
	edge    *experiments.Site
	client  *core.Client
	device  string
}

func newCacheRig(t testing.TB) *cacheRig {
	t.Helper()
	s := sim.New()
	nw := netsim.New(s)
	library := experiments.Env{}.NewSite(s, nw, "library")
	library.BuildFS(experiments.FSOptions{
		Name: "archive", BlockSize: units.MiB,
		Servers: 4, ServerEth: units.Gbps,
		StoreRate: 400 * units.MBps, StoreCap: 10 * units.TB, StoreStreams: 4,
	})
	edge := experiments.Env{}.NewSite(s, nw, "edge")
	edge.BuildFS(experiments.FSOptions{
		Name: "scratch", BlockSize: units.MiB,
		Servers: 2, ServerEth: units.Gbps,
		StoreRate: 400 * units.MBps, StoreCap: units.TB, StoreStreams: 4,
	})
	nw.DuplexLink("wan", library.Switch, edge.Switch, units.Gbps, 30*sim.Millisecond)
	device := experiments.Peer(library, edge, auth.ReadOnly)
	client := edge.AddClients(1, 2*units.Gbps, core.DefaultClientConfig())[0]
	return &cacheRig{s: s, library: library, edge: edge, client: client, device: device}
}

func (r *cacheRig) run(t testing.TB, fn func(p *sim.Proc) error) {
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

// seedLibrary writes n files of the given size at the library site.
func seedLibrary(p *sim.Proc, lib *experiments.Site, n int, size units.Bytes) ([]string, error) {
	seeder := lib.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]
	m, err := seeder.MountLocal(p, lib.FS)
	if err != nil {
		return nil, err
	}
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("/ds%02d", i)
		f, err := m.Create(p, name, core.DefaultPerm)
		if err != nil {
			return nil, err
		}
		for off := units.Bytes(0); off < size; off += 4 * units.MiB {
			ln := min(4*units.MiB, size-off)
			if err := f.WriteAt(p, off, ln); err != nil {
				return nil, err
			}
		}
		if err := f.Close(p); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

func min(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}

func TestMissThenHit(t *testing.T) {
	t.Parallel()
	r := newCacheRig(t)
	r.run(t, func(p *sim.Proc) error {
		names, err := seedLibrary(p, r.library, 1, 64*units.MiB)
		if err != nil {
			return err
		}
		local, err := r.client.MountLocal(p, r.edge.FS)
		if err != nil {
			return err
		}
		remote, err := r.client.MountRemote(p, r.device)
		if err != nil {
			return err
		}
		c, err := cachefs.New(r.s, p, local, remote, "/cache", 512*units.MiB)
		if err != nil {
			return err
		}
		t0 := p.Now()
		f, err := c.Open(p, names[0])
		if err != nil {
			return err
		}
		missTime := p.Now() - t0
		if err := f.ReadAt(p, 0, f.Size()); err != nil {
			return err
		}
		if !c.Cached(names[0]) {
			return fmt.Errorf("not cached after miss")
		}
		// Second open: pure hit — only a remote stat crosses the WAN.
		t1 := p.Now()
		g, err := c.Open(p, names[0])
		if err != nil {
			return err
		}
		hitTime := p.Now() - t1
		if err := g.ReadAt(p, 0, g.Size()); err != nil {
			return err
		}
		if hitTime >= missTime/3 {
			return fmt.Errorf("hit (%v) not much cheaper than miss (%v)", hitTime, missTime)
		}
		h, ms, _, _ := c.Stats()
		if h != 1 || ms != 1 {
			return fmt.Errorf("stats: hits=%d misses=%d", h, ms)
		}
		return nil
	})
}

func TestLRUEviction(t *testing.T) {
	t.Parallel()
	r := newCacheRig(t)
	r.run(t, func(p *sim.Proc) error {
		names, err := seedLibrary(p, r.library, 4, 32*units.MiB)
		if err != nil {
			return err
		}
		local, _ := r.client.MountLocal(p, r.edge.FS)
		remote, _ := r.client.MountRemote(p, r.device)
		// Budget for ~2 files.
		c, err := cachefs.New(r.s, p, local, remote, "/cache", 70*units.MiB)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Open(p, names[i]); err != nil {
				return err
			}
			p.Sleep(sim.Second)
		}
		if c.Cached(names[0]) {
			return fmt.Errorf("LRU victim still cached: %v", c.Contents())
		}
		if !c.Cached(names[1]) || !c.Cached(names[2]) {
			return fmt.Errorf("wrong eviction order: %v", c.Contents())
		}
		_, _, _, ev := c.Stats()
		if ev != 1 {
			return fmt.Errorf("evictions = %d", ev)
		}
		if c.Used() > c.Budget {
			return fmt.Errorf("over budget: %v", c.Used())
		}
		return nil
	})
}

func TestStaleRefetch(t *testing.T) {
	t.Parallel()
	r := newCacheRig(t)
	r.run(t, func(p *sim.Proc) error {
		names, err := seedLibrary(p, r.library, 1, 16*units.MiB)
		if err != nil {
			return err
		}
		local, _ := r.client.MountLocal(p, r.edge.FS)
		remote, _ := r.client.MountRemote(p, r.device)
		c, err := cachefs.New(r.s, p, local, remote, "/cache", 512*units.MiB)
		if err != nil {
			return err
		}
		if _, err := c.Open(p, names[0]); err != nil {
			return err
		}
		// The library's copy grows (a new release of the dataset).
		libClient := r.library.AddClients(1, 10*units.Gbps, core.DefaultClientConfig())[0]
		lm, _ := libClient.MountLocal(p, r.library.FS)
		f, err := lm.Open(p, names[0])
		if err != nil {
			return err
		}
		if err := f.WriteAt(p, f.Size(), 8*units.MiB); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		g, err := c.Open(p, names[0])
		if err != nil {
			return err
		}
		if g.Size() != 24*units.MiB {
			return fmt.Errorf("stale copy served: size %v", g.Size())
		}
		_, _, rf, _ := c.Stats()
		if rf != 1 {
			return fmt.Errorf("refetches = %d", rf)
		}
		return nil
	})
}

func TestOversizedFileRejected(t *testing.T) {
	t.Parallel()
	r := newCacheRig(t)
	r.run(t, func(p *sim.Proc) error {
		names, err := seedLibrary(p, r.library, 1, 64*units.MiB)
		if err != nil {
			return err
		}
		local, _ := r.client.MountLocal(p, r.edge.FS)
		remote, _ := r.client.MountRemote(p, r.device)
		c, err := cachefs.New(r.s, p, local, remote, "/cache", 32*units.MiB)
		if err != nil {
			return err
		}
		if _, err := c.Open(p, names[0]); err == nil {
			return fmt.Errorf("oversized file cached")
		}
		return nil
	})
}

func TestMissingRemoteFile(t *testing.T) {
	t.Parallel()
	r := newCacheRig(t)
	r.run(t, func(p *sim.Proc) error {
		if _, err := seedLibrary(p, r.library, 1, units.MiB); err != nil {
			return err
		}
		local, _ := r.client.MountLocal(p, r.edge.FS)
		remote, _ := r.client.MountRemote(p, r.device)
		c, err := cachefs.New(r.s, p, local, remote, "/cache", 32*units.MiB)
		if err != nil {
			return err
		}
		if _, err := c.Open(p, "/nope"); err == nil {
			return fmt.Errorf("missing remote file cached")
		}
		return nil
	})
}
