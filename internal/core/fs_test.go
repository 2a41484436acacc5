package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gfs/internal/auth"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// rig is a single-cluster test harness: n NSD servers with rate stores, a
// manager, and a set of clients, all on a GbE switch.
type rig struct {
	s  *sim.Sim
	nw *netsim.Network
	cl *Cluster
	fs *FileSystem
	sw *netsim.Node

	clients []*Client
}

func newRig(t testing.TB, nServers, nClients int, blockSize units.Bytes) *rig {
	t.Helper()
	s := sim.New()
	nw := netsim.New(s)
	cluster := NewCluster(s, nw, "sdsc", auth.AuthOnly)
	r := &rig{s: s, nw: nw, cl: cluster, sw: nw.NewNode("eth")}
	r.fs = cluster.CreateFS("gpfs0", blockSize)
	for i := 0; i < nServers; i++ {
		node := nw.NewNode(fmt.Sprintf("nsd%d", i))
		nw.DuplexLink(fmt.Sprintf("nsd%d-eth", i), node, r.sw, units.Gbps, 50*sim.Microsecond)
		srv := r.fs.AddServer(fmt.Sprintf("srv%d", i), node, 2)
		store := NewRateStore(s, fmt.Sprintf("store%d", i), 400*units.MBps, 100*units.GB, 8)
		r.fs.AddNSD(fmt.Sprintf("nsd%d", i), store, srv)
	}
	mgrNode := nw.NewNode("mgr")
	nw.DuplexLink("mgr-eth", mgrNode, r.sw, units.Gbps, 50*sim.Microsecond)
	r.fs.SetManager(mgrNode, 2)
	for i := 0; i < nClients; i++ {
		r.addClient(fmt.Sprintf("c%d", i), DefaultClientConfig(), Identity{DN: fmt.Sprintf("/O=SDSC/CN=user%d", i)})
	}
	return r
}

func (r *rig) addClient(name string, cfg ClientConfig, id Identity) *Client {
	node := r.nw.NewNode("client-" + name)
	r.nw.DuplexLink("cl-"+name, node, r.sw, units.Gbps, 50*sim.Microsecond)
	cl := NewClient(r.cl, name, node, cfg, id)
	r.clients = append(r.clients, cl)
	return cl
}

// run executes fn as a process and drives the simulation to completion,
// failing the test on error.
func (r *rig) run(t testing.TB, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	done := false
	r.s.Go("test", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	r.s.Run()
	if !done {
		t.Fatal("test process deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
}

func pattern(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func TestWriteReadRoundTripSameClient(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/data.bin", DefaultPerm)
		if err != nil {
			return err
		}
		data := pattern(int(3*units.MiB)+517, 1)
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		got, err := f.ReadBytesAt(p, 0, units.Bytes(len(data)))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("read-back mismatch")
		}
		return nil
	})
}

func TestWriteReadRoundTripCrossClient(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 2, 256*units.KiB)
	data := pattern(int(2*units.MiB)+99, 7)
	r.run(t, func(p *sim.Proc) error {
		mA, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := mA.Create(p, "/shared.bin", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		mB, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		g, err := mB.Open(p, "/shared.bin")
		if err != nil {
			return err
		}
		if g.Size() != units.Bytes(len(data)) {
			return fmt.Errorf("size = %d, want %d", g.Size(), len(data))
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("cross-client read mismatch")
		}
		return nil
	})
}

func TestRevokeFlushesUnsyncedWrites(t *testing.T) {
	t.Parallel()
	// Writer overwrites a synced region without syncing; a reader's token
	// acquisition must force the writer's dirty pages to disk first.
	r := newRig(t, 2, 2, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		mA, _ := r.clients[0].MountLocal(p, r.fs)
		f, err := mA.Create(p, "/f", DefaultPerm)
		if err != nil {
			return err
		}
		old := bytes.Repeat([]byte{0xAA}, int(512*units.KiB))
		if err := f.WriteBytesAt(p, 0, old); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		// Unsynced overwrite of the middle.
		fresh := bytes.Repeat([]byte{0xBB}, 1000)
		if err := f.WriteBytesAt(p, 100, fresh); err != nil {
			return err
		}
		mB, _ := r.clients[1].MountLocal(p, r.fs)
		g, err := mB.Open(p, "/f")
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, 2000)
		if err != nil {
			return err
		}
		want := append(append(append([]byte{}, old[:100]...), fresh...), old[1100:2000]...)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("reader saw stale bytes after revoke")
		}
		_, revokes := r.fs.TokenStats()
		if revokes == 0 {
			return fmt.Errorf("no revocation happened")
		}
		return nil
	})
}

func TestStripingSpreadsAcrossNSDs(t *testing.T) {
	t.Parallel()
	r := newRig(t, 4, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		f, err := m.Create(p, "/big", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteAt(p, 0, 8*256*units.KiB); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		used := 0
		for _, n := range r.fs.nsds {
			if n.alloc.Used() > 0 {
				used++
			}
		}
		if used != 4 {
			return fmt.Errorf("blocks landed on %d of 4 NSDs", used)
		}
		return nil
	})
}

func TestPermissions(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 2, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		mA, _ := r.clients[0].MountLocal(p, r.fs)
		f, err := mA.Create(p, "/private", OwnerRead|OwnerWrite)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, []byte("secret")); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		mB, _ := r.clients[1].MountLocal(p, r.fs)
		// Different DN: no world bits -> create under it must fail... the
		// file is readable only by owner.
		a, err := mB.Stat(p, "/private")
		if err != nil {
			return err
		}
		if a.OwnerDN != r.clients[0].Ident.DN {
			return fmt.Errorf("owner = %q", a.OwnerDN)
		}
		// Reads go through tokens+NSD; permission enforcement for reads is
		// at open/stat level in this model. Verify remove by non-owner on
		// a non-world-writable file is denied.
		if err := mB.Remove(p, "/private"); err == nil {
			return fmt.Errorf("non-owner removed private file")
		}
		// Owner can remove.
		if err := mA.Remove(p, "/private"); err != nil {
			return err
		}
		return nil
	})
}

func TestMkdirListRemove(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		if err := m.Mkdir(p, "/runs"); err != nil {
			return err
		}
		if err := m.Mkdir(p, "/runs/enzo-2005"); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			f, err := m.Create(p, fmt.Sprintf("/runs/enzo-2005/out%d", i), DefaultPerm)
			if err != nil {
				return err
			}
			if err := f.WriteAt(p, 0, units.KiB); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
		}
		ents, err := m.List(p, "/runs/enzo-2005")
		if err != nil {
			return err
		}
		if len(ents) != 3 {
			return fmt.Errorf("list = %d entries", len(ents))
		}
		if !strings.HasPrefix(ents[0].Name, "out") {
			return fmt.Errorf("bad entry %q", ents[0].Name)
		}
		// Non-empty dir cannot be removed.
		if err := m.Remove(p, "/runs/enzo-2005"); err == nil {
			return fmt.Errorf("removed non-empty directory")
		}
		for i := 0; i < 3; i++ {
			if err := m.Remove(p, fmt.Sprintf("/runs/enzo-2005/out%d", i)); err != nil {
				return err
			}
		}
		if err := m.Remove(p, "/runs/enzo-2005"); err != nil {
			return err
		}
		return nil
	})
}

func TestRemoveFreesBlocks(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		free0 := r.fs.FreeBytes()
		f, _ := m.Create(p, "/tmp", DefaultPerm)
		if err := f.WriteAt(p, 0, 4*units.MiB); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		if r.fs.FreeBytes() >= free0 {
			return fmt.Errorf("no blocks consumed")
		}
		if err := m.Remove(p, "/tmp"); err != nil {
			return err
		}
		if r.fs.FreeBytes() != free0 {
			return fmt.Errorf("blocks leaked: %d != %d", r.fs.FreeBytes(), free0)
		}
		return nil
	})
}

func TestTruncateShrinks(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		f, _ := m.Create(p, "/t", DefaultPerm)
		data := pattern(int(units.MiB), 3)
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		if err := f.Truncate(p, 100*units.KiB); err != nil {
			return err
		}
		a, err := m.Stat(p, "/t")
		if err != nil {
			return err
		}
		if a.Size != 100*units.KiB {
			return fmt.Errorf("size = %d", a.Size)
		}
		if a.NBlocks != 1 {
			return fmt.Errorf("blocks = %d, want 1", a.NBlocks)
		}
		got, err := f.ReadBytesAt(p, 0, 100*units.KiB)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data[:100*units.KiB]) {
			return fmt.Errorf("data corrupted by truncate")
		}
		return nil
	})
}

func TestSmallPagePoolEvicts(t *testing.T) {
	t.Parallel()
	cfg := DefaultClientConfig()
	cfg.PagePool = 2 * units.MiB // 8 pages of 256 KiB
	r := newRig(t, 2, 0, 256*units.KiB)
	cl := r.addClient("tiny", cfg, Identity{DN: "/O=SDSC/CN=tiny"})
	data := pattern(int(8*units.MiB), 11)
	r.run(t, func(p *sim.Proc) error {
		m, err := cl.MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, _ := m.Create(p, "/big", DefaultPerm)
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		got, err := f.ReadBytesAt(p, 0, units.Bytes(len(data)))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("mismatch with tiny pagepool")
		}
		if m.pool.Len() > m.pool.capacity+2 {
			return fmt.Errorf("pool grew to %d pages (cap %d)", m.pool.Len(), m.pool.capacity)
		}
		return nil
	})
}

func TestReadAheadHidesWANLatency(t *testing.T) {
	t.Parallel()
	// Identical WAN reads with read-ahead 0 vs 16: deep prefetch must be
	// several times faster across 40 ms one-way latency. This is the
	// paper's central mechanism.
	elapsed := func(ra int) sim.Time {
		s := sim.New()
		nw := netsim.New(s)
		cluster := NewCluster(s, nw, "sdsc", auth.AuthOnly)
		sw := nw.NewNode("wan-sw")
		fs := cluster.CreateFS("gpfs0", units.MiB)
		for i := 0; i < 4; i++ {
			node := nw.NewNode(fmt.Sprintf("nsd%d", i))
			nw.DuplexLink(fmt.Sprintf("l%d", i), node, sw, 10*units.Gbps, 50*sim.Microsecond)
			srv := fs.AddServer(fmt.Sprintf("s%d", i), node, 2)
			fs.AddNSD(fmt.Sprintf("n%d", i), NewRateStore(s, "st", 2*units.GBps, 100*units.GB, 8), srv)
		}
		mgr := nw.NewNode("mgr")
		nw.DuplexLink("mgr", mgr, sw, units.Gbps, 50*sim.Microsecond)
		fs.SetManager(mgr, 2)
		remote := nw.NewNode("baltimore")
		nw.DuplexLink("wan", remote, sw, 10*units.Gbps, 40*sim.Millisecond)
		cfg := DefaultClientConfig()
		cfg.ReadAhead = ra
		cl := NewClient(cluster, "viz", remote, cfg, Identity{DN: "/CN=x"})
		var t0, t1 sim.Time
		s.Go("bench", func(p *sim.Proc) {
			m, err := cl.MountLocal(p, fs)
			if err != nil {
				panic(err)
			}
			f, err := m.Create(p, "/d", DefaultPerm)
			if err != nil {
				panic(err)
			}
			if err := f.WriteAt(p, 0, 64*units.MiB); err != nil {
				panic(err)
			}
			if err := f.Sync(p); err != nil {
				panic(err)
			}
			// The write left every page cached; drop them so the timed
			// loop actually measures WAN fetches (without this both
			// variants read from the pool in zero time and the test is
			// vacuous).
			m.DropCaches()
			f.Seek(0)
			t0 = p.Now()
			for off := units.Bytes(0); off < 64*units.MiB; off += units.MiB {
				if err := f.ReadAt(p, off, units.MiB); err != nil {
					panic(err)
				}
			}
			t1 = p.Now()
		})
		s.Run()
		return t1 - t0
	}
	slow := elapsed(0)
	fast := elapsed(16)
	if float64(fast) > float64(slow)/3 {
		t.Errorf("read-ahead 16 took %v vs %v without; want >=3x speedup", fast, slow)
	}
}

func TestTokenChunkAmortizesRPCs(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		f, _ := m.Create(p, "/seq", DefaultPerm)
		for off := units.Bytes(0); off < 32*units.MiB; off += units.MiB {
			if err := f.WriteAt(p, off, units.MiB); err != nil {
				return err
			}
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		grants, _ := r.fs.TokenStats()
		if grants > 3 {
			return fmt.Errorf("%d token grants for one sequential writer; chunking broken", grants)
		}
		return nil
	})
}

func TestReadBeyondEOF(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		f, _ := m.Create(p, "/s", DefaultPerm)
		if err := f.WriteAt(p, 0, units.KiB); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		if err := f.ReadAt(p, 0, 2*units.KiB); err == nil {
			return fmt.Errorf("read beyond EOF succeeded")
		}
		return nil
	})
}

func TestOpenMissingFile(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		if _, err := m.Open(p, "/nope"); err == nil {
			return fmt.Errorf("open of missing file succeeded")
		}
		return nil
	})
}

func TestCreateDuplicateFails(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		if _, err := m.Create(p, "/x", DefaultPerm); err != nil {
			return err
		}
		if _, err := m.Create(p, "/x", DefaultPerm); err == nil {
			return fmt.Errorf("duplicate create succeeded")
		}
		return nil
	})
}
