package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gfs/internal/sim"
	"gfs/internal/units"
)

func TestNSDFailoverServesReads(t *testing.T) {
	t.Parallel()
	r := newRig(t, 3, 1, 256*units.KiB)
	// Make server 1 the backup for every NSD primary-served by server 0.
	backup := r.fs.servers[1]
	for _, n := range r.fs.nsds {
		if n.Primary == r.fs.servers[0] {
			r.fs.SetBackup(n, backup)
		}
	}
	data := pattern(int(2*units.MiB), 3)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		f, err := m.Create(p, "/ha", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		// Kill the primary; reads must transparently fail over.
		r.fs.servers[0].Fail()
		m.pool.invalidateAll()
		got, err := f.ReadBytesAt(p, 0, units.Bytes(len(data)))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("failover read mismatch")
		}
		// Writes go to the backup too.
		if err := f.WriteBytesAt(p, 0, []byte("updated")); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		return nil
	})
}

func TestNSDFailWithoutBackupErrors(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		f, err := m.Create(p, "/x", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteAt(p, 0, units.MiB); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		r.fs.servers[0].Fail()
		r.fs.servers[1].Fail()
		m.pool.invalidateAll()
		if err := f.ReadAt(p, 0, units.MiB); err == nil {
			return fmt.Errorf("read with all servers down succeeded")
		}
		// Recovery restores service automatically: with no backup, retries
		// keep targeting the primary, so the next read finds it back up
		// with no manual reset.
		r.fs.servers[0].Recover()
		r.fs.servers[1].Recover()
		p.Sleep(sim.Second)
		return f.ReadAt(p, 0, units.MiB)
	})
}

func TestFSCKCleanAfterChurn(t *testing.T) {
	t.Parallel()
	r := newRig(t, 3, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		if err := m.Mkdir(p, "/d"); err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			f, err := m.Create(p, fmt.Sprintf("/d/f%d", i), DefaultPerm)
			if err != nil {
				return err
			}
			if err := f.WriteAt(p, 0, units.Bytes(i+1)*300*units.KiB); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
		}
		for i := 0; i < 3; i++ {
			if err := m.Remove(p, fmt.Sprintf("/d/f%d", i)); err != nil {
				return err
			}
		}
		rep := r.fs.Check()
		if !rep.OK() {
			return fmt.Errorf("fsck found: %v", rep.Problems)
		}
		if rep.Files != 3 || rep.Dirs != 2 {
			return fmt.Errorf("fsck counted %d files %d dirs", rep.Files, rep.Dirs)
		}
		return nil
	})
}

func TestFSCKDetectsCorruption(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		f, err := m.Create(p, "/victim", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteAt(p, 0, units.MiB); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		// Corrupt: free a referenced slot behind the filesystem's back.
		ino := r.fs.inodes[f.Inode()]
		ref := ino.Blocks[0]
		r.fs.nsds[ref.NSD].alloc.Release(ref.Block)
		rep := r.fs.Check()
		if rep.OK() {
			return fmt.Errorf("fsck missed an unallocated referenced slot")
		}
		// And an orphan inode.
		r.fs.inodes[999] = &Inode{Num: 999, Name: "ghost"}
		rep = r.fs.Check()
		if rep.OrphanInodes != 1 {
			return fmt.Errorf("fsck missed the orphan (report %v)", rep.Problems)
		}
		return nil
	})
}

func TestRename(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	data := pattern(int(512*units.KiB), 5)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		if err := m.Mkdir(p, "/a"); err != nil {
			return err
		}
		if err := m.Mkdir(p, "/b"); err != nil {
			return err
		}
		f, err := m.Create(p, "/a/file", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		if err := m.Rename(p, "/a/file", "/b/moved"); err != nil {
			return err
		}
		if _, err := m.Stat(p, "/a/file"); err == nil {
			return fmt.Errorf("old path still resolves")
		}
		g, err := m.Open(p, "/b/moved")
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("data lost in rename")
		}
		if rep := r.fs.Check(); !rep.OK() {
			return fmt.Errorf("fsck after rename: %v", rep.Problems)
		}
		return nil
	})
}

func TestRenameRejectsCycle(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		if err := m.Mkdir(p, "/top"); err != nil {
			return err
		}
		if err := m.Mkdir(p, "/top/mid"); err != nil {
			return err
		}
		if err := m.Rename(p, "/top", "/top/mid/oops"); err == nil {
			return fmt.Errorf("cycle-creating rename succeeded")
		}
		return nil
	})
}

func TestRenameOntoExistingFails(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		for _, name := range []string{"/x", "/y"} {
			if _, err := m.Create(p, name, DefaultPerm); err != nil {
				return err
			}
		}
		if err := m.Rename(p, "/x", "/y"); err == nil {
			return fmt.Errorf("rename onto existing succeeded")
		}
		return nil
	})
}

func TestStatFS(t *testing.T) {
	t.Parallel()
	r := newRig(t, 3, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, _ := r.clients[0].MountLocal(p, r.fs)
		st0, err := m.StatFS(p)
		if err != nil {
			return err
		}
		if st0.NSDs != 3 || st0.BlockSize != 256*units.KiB {
			return fmt.Errorf("statfs shape: %+v", st0)
		}
		f, _ := m.Create(p, "/big", DefaultPerm)
		if err := f.WriteAt(p, 0, 16*units.MiB); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		st1, err := m.StatFS(p)
		if err != nil {
			return err
		}
		if st1.Free >= st0.Free {
			return fmt.Errorf("free did not shrink: %v -> %v", st0.Free, st1.Free)
		}
		if st1.Capacity != st0.Capacity {
			return fmt.Errorf("capacity changed")
		}
		return nil
	})
}

// Property: arbitrary create/write/remove/rename churn leaves the
// filesystem fsck-clean.
func TestPropertyFSCKInvariant(t *testing.T) {
	t.Parallel()
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 2, 1, 256*units.KiB)
		ok := true
		r.run(t, func(p *sim.Proc) error {
			m, _ := r.clients[0].MountLocal(p, r.fs)
			var files []string
			n := int(opsRaw%24) + 4
			for i := 0; i < n; i++ {
				switch rng.Intn(4) {
				case 0, 1: // create + write
					name := fmt.Sprintf("/f%d", i)
					f, err := m.Create(p, name, DefaultPerm)
					if err != nil {
						continue
					}
					if err := f.WriteAt(p, 0, units.Bytes(rng.Intn(int(2*units.MiB))+1)); err != nil {
						return err
					}
					if err := f.Close(p); err != nil {
						return err
					}
					files = append(files, name)
				case 2: // remove
					if len(files) > 0 {
						idx := rng.Intn(len(files))
						_ = m.Remove(p, files[idx])
						files = append(files[:idx], files[idx+1:]...)
					}
				case 3: // rename
					if len(files) > 0 {
						idx := rng.Intn(len(files))
						newName := fmt.Sprintf("/r%d", i)
						if err := m.Rename(p, files[idx], newName); err == nil {
							files[idx] = newName
						}
					}
				}
			}
			if rep := r.fs.Check(); !rep.OK() {
				ok = false
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestChmodChown(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 2, 256*units.KiB)
	rootClient := r.addClient("admin", DefaultClientConfig(), Identity{DN: "/CN=admin", Root: true})
	r.run(t, func(p *sim.Proc) error {
		mA, _ := r.clients[0].MountLocal(p, r.fs)
		mB, _ := r.clients[1].MountLocal(p, r.fs)
		mRoot, _ := rootClient.MountLocal(p, r.fs)
		if _, err := mA.Create(p, "/f", OwnerRead|OwnerWrite); err != nil {
			return err
		}
		// Non-owner cannot chmod.
		if err := mB.Chmod(p, "/f", DefaultPerm); err == nil {
			return fmt.Errorf("non-owner chmod succeeded")
		}
		// Owner opens the file to the world.
		if err := mA.Chmod(p, "/f", DefaultPerm|WorldWrite); err != nil {
			return err
		}
		a, err := mB.Stat(p, "/f")
		if err != nil {
			return err
		}
		if a.Mode&WorldWrite == 0 {
			return fmt.Errorf("chmod lost: %v", a.Mode)
		}
		// Only root may chown.
		if err := mA.Chown(p, "/f", r.clients[1].Ident.DN); err == nil {
			return fmt.Errorf("owner gave the file away without root")
		}
		if err := mRoot.Chown(p, "/f", r.clients[1].Ident.DN); err != nil {
			return err
		}
		a, err = mB.Stat(p, "/f")
		if err != nil {
			return err
		}
		if a.OwnerDN != r.clients[1].Ident.DN {
			return fmt.Errorf("owner = %q", a.OwnerDN)
		}
		return nil
	})
}

// TestSiblingUnmountKeepsRevokes: the token manager's client registry is
// cluster-wide, so unmounting one filesystem must not drop a client that
// still mounts another of the cluster's filesystems. Otherwise a later
// conflicting write there carves the client's token without a revoke and
// the client goes on reading its stale cache.
func TestSiblingUnmountKeepsRevokes(t *testing.T) {
	t.Parallel()
	r := newRig(t, 1, 2, 256*units.KiB)
	fs1 := r.cl.CreateFS("gpfs1", 256*units.KiB)
	node := r.nw.NewNode("nsd-b")
	r.nw.DuplexLink("nsd-b-eth", node, r.sw, units.Gbps, 50*sim.Microsecond)
	srv := fs1.AddServer("srv-b", node, 2)
	fs1.AddNSD("nsd-b", NewRateStore(r.s, "store-b", 400*units.MBps, 100*units.GB, 8), srv)
	mgr := r.nw.NewNode("mgr-b")
	r.nw.DuplexLink("mgr-b-eth", mgr, r.sw, units.Gbps, 50*sim.Microsecond)
	fs1.SetManager(mgr, 2)
	old, fresh := pattern(int(units.MiB), 1), pattern(int(units.MiB), 2)
	r.run(t, func(p *sim.Proc) error {
		m0, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		m1, err := r.clients[0].MountLocal(p, fs1)
		if err != nil {
			return err
		}
		f, err := m1.Create(p, "/x", DefaultPerm|WorldWrite)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, old); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		if _, err := f.ReadBytesAt(p, 0, units.MiB); err != nil {
			return err
		}
		if err := m0.Unmount(p); err != nil {
			return err
		}
		w, err := r.clients[1].MountLocal(p, fs1)
		if err != nil {
			return err
		}
		g, err := w.Open(p, "/x")
		if err != nil {
			return err
		}
		if err := g.WriteBytesAt(p, 0, fresh); err != nil {
			return err
		}
		if err := g.Sync(p); err != nil {
			return err
		}
		if _, revokes := fs1.TokenStats(); revokes == 0 {
			return fmt.Errorf("conflicting write on gpfs1 sent no revoke")
		}
		got, err := f.ReadBytesAt(p, 0, units.MiB)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, fresh) {
			return fmt.Errorf("client0 read stale bytes after client1's write")
		}
		return nil
	})
}

func TestUnmountDropsTokensAndAllowsRemount(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 2, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		mA, _ := r.clients[0].MountLocal(p, r.fs)
		f, err := mA.Create(p, "/held", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteAt(p, 0, units.MiB); err != nil {
			return err
		}
		// Unmount must flush the dirty pages and surrender tokens.
		if err := mA.Unmount(p); err != nil {
			return err
		}
		if len(r.clients[0].Mounts()) != 0 {
			return fmt.Errorf("mount table not empty after unmount")
		}
		// A second client acquiring an exclusive token must see NO
		// revocation (the departed holder is gone).
		mB, _ := r.clients[1].MountLocal(p, r.fs)
		g, err := mB.Open(p, "/held")
		if err != nil {
			return err
		}
		_, rev0 := r.fs.TokenStats()
		if err := g.WriteAt(p, 0, units.KiB); err != nil {
			return err
		}
		if _, rev1 := r.fs.TokenStats(); rev1 != rev0 {
			return fmt.Errorf("revocation against an unmounted client")
		}
		// And remounting works.
		if _, err := r.clients[0].MountLocal(p, r.fs); err != nil {
			return err
		}
		return nil
	})
}
