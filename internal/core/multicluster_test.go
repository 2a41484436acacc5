package core

import (
	"bytes"
	"fmt"
	"testing"

	"gfs/internal/auth"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// wanRig is a two-cluster harness: "sdsc" exports gpfs-wan; "ncsa" sits
// across a 10 Gb/s, 2x10 ms WAN.
type wanRig struct {
	s            *sim.Sim
	nw           *netsim.Network
	sdsc, ncsa   *Cluster
	fs           *FileSystem
	sdscSW       *netsim.Node
	ncsaSW       *netsim.Node
	sdscClient   *Client
	ncsaClient   *Client
	grantedLevel auth.Access
}

func newWANRig(t testing.TB, grant auth.Access, exchangeKeys bool) *wanRig {
	t.Helper()
	s := sim.New()
	nw := netsim.New(s)
	sdsc := NewCluster(s, nw, "sdsc.teragrid", auth.AuthOnly)
	ncsa := NewCluster(s, nw, "ncsa.teragrid", auth.AuthOnly)
	r := &wanRig{s: s, nw: nw, sdsc: sdsc, ncsa: ncsa, grantedLevel: grant}
	r.sdscSW = nw.NewNode("sdsc-sw")
	r.ncsaSW = nw.NewNode("ncsa-sw")
	nw.DuplexLink("teragrid", r.sdscSW, r.ncsaSW, 10*units.Gbps, 10*sim.Millisecond)

	r.fs = sdsc.CreateFS("gpfs-wan", units.MiB)
	for i := 0; i < 4; i++ {
		node := nw.NewNode(fmt.Sprintf("sdsc-nsd%d", i))
		nw.DuplexLink(fmt.Sprintf("nl%d", i), node, r.sdscSW, units.Gbps, 50*sim.Microsecond)
		srv := r.fs.AddServer(fmt.Sprintf("s%d", i), node, 2)
		r.fs.AddNSD(fmt.Sprintf("n%d", i), NewRateStore(s, "st", units.GBps, 100*units.GB, 8), srv)
	}
	mgr := nw.NewNode("sdsc-mgr")
	nw.DuplexLink("ml", mgr, r.sdscSW, units.Gbps, 50*sim.Microsecond)
	r.fs.SetManager(mgr, 2)
	contact := nw.NewNode("sdsc-contact")
	nw.DuplexLink("cl", contact, r.sdscSW, units.Gbps, 50*sim.Microsecond)
	sdscContact := sdsc.SetContact(contact)

	// Administrative exchange (out of band in the paper; instantaneous here).
	if exchangeKeys {
		if err := sdsc.AuthAdd(ncsa.Name, ncsa.PublicPEM()); err != nil {
			t.Fatal(err)
		}
		if grant != auth.None {
			if err := sdsc.AuthGrant("gpfs-wan", ncsa.Name, grant); err != nil {
				t.Fatal(err)
			}
		}
		if err := ncsa.RemoteClusterAdd(sdsc.Name, sdscContact, sdsc.PublicPEM()); err != nil {
			t.Fatal(err)
		}
		if err := ncsa.RemoteFSAdd("gpfs_sdsc", sdsc.Name, "gpfs-wan"); err != nil {
			t.Fatal(err)
		}
	}

	sdscNode := nw.NewNode("sdsc-client")
	nw.DuplexLink("scl", sdscNode, r.sdscSW, units.Gbps, 50*sim.Microsecond)
	r.sdscClient = NewClient(sdsc, "c0", sdscNode, DefaultClientConfig(), Identity{DN: "/O=Grid/CN=jane"})

	ncsaNode := nw.NewNode("ncsa-client")
	nw.DuplexLink("ncl", ncsaNode, r.ncsaSW, units.Gbps, 50*sim.Microsecond)
	r.ncsaClient = NewClient(ncsa, "c0", ncsaNode, DefaultClientConfig(), Identity{DN: "/O=Grid/CN=jane"})
	return r
}

func (r *wanRig) run(t testing.TB, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	done := false
	r.s.Go("test", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	r.s.Run()
	if !done {
		t.Fatal("deadlock")
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteMountReadsData(t *testing.T) {
	t.Parallel()
	r := newWANRig(t, auth.ReadOnly, true)
	data := pattern(int(2*units.MiB), 42)
	r.run(t, func(p *sim.Proc) error {
		// Writer at SDSC.
		mL, err := r.sdscClient.MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := mL.Create(p, "/nvo/catalog.fits", DefaultPerm)
		if err == nil {
			return fmt.Errorf("create in missing dir succeeded")
		}
		if err := mL.Mkdir(p, "/nvo"); err != nil {
			return err
		}
		f, err = mL.Create(p, "/nvo/catalog.fits", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		// Reader at NCSA via multi-cluster mount.
		mR, err := r.ncsaClient.MountRemote(p, "gpfs_sdsc")
		if err != nil {
			return err
		}
		g, err := mR.Open(p, "/nvo/catalog.fits")
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("WAN read mismatch")
		}
		if !r.sdsc.Authenticated(r.ncsa.Name) {
			return fmt.Errorf("exporting cluster does not record authentication")
		}
		return nil
	})
}

func TestRemoteMountWithoutKeysFails(t *testing.T) {
	t.Parallel()
	r := newWANRig(t, auth.ReadWrite, false)
	r.run(t, func(p *sim.Proc) error {
		if _, err := r.ncsaClient.MountRemote(p, "gpfs_sdsc"); err == nil {
			return fmt.Errorf("mount without mmremotefs definition succeeded")
		}
		return nil
	})
}

func TestRemoteMountWithoutGrantFails(t *testing.T) {
	t.Parallel()
	r := newWANRig(t, auth.None, true)
	r.run(t, func(p *sim.Proc) error {
		if _, err := r.ncsaClient.MountRemote(p, "gpfs_sdsc"); err == nil {
			return fmt.Errorf("mount without mmauth grant succeeded")
		}
		return nil
	})
}

func TestReadOnlyGrantBlocksWrites(t *testing.T) {
	t.Parallel()
	r := newWANRig(t, auth.ReadOnly, true)
	r.run(t, func(p *sim.Proc) error {
		mR, err := r.ncsaClient.MountRemote(p, "gpfs_sdsc")
		if err != nil {
			return err
		}
		if _, err := mR.Create(p, "/intruder", DefaultPerm); err == nil {
			return fmt.Errorf("create over an ro grant succeeded")
		}
		return nil
	})
}

func TestReadWriteGrantAllowsWrites(t *testing.T) {
	t.Parallel()
	r := newWANRig(t, auth.ReadWrite, true)
	data := pattern(int(units.MiB)+13, 5)
	r.run(t, func(p *sim.Proc) error {
		mR, err := r.ncsaClient.MountRemote(p, "gpfs_sdsc")
		if err != nil {
			return err
		}
		f, err := mR.Create(p, "/from-ncsa", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		// Visible at SDSC.
		mL, err := r.sdscClient.MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		g, err := mL.Open(p, "/from-ncsa")
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("write-from-remote mismatch")
		}
		return nil
	})
}

func TestCrossSiteCoherence(t *testing.T) {
	t.Parallel()
	// SDSC writes, NCSA reads, SDSC overwrites (unsynced), NCSA re-reads:
	// token revocation across the WAN must deliver the new bytes.
	r := newWANRig(t, auth.ReadWrite, true)
	r.run(t, func(p *sim.Proc) error {
		mL, _ := r.sdscClient.MountLocal(p, r.fs)
		f, err := mL.Create(p, "/coherent", DefaultPerm)
		if err != nil {
			return err
		}
		v1 := bytes.Repeat([]byte{1}, int(units.MiB))
		if err := f.WriteBytesAt(p, 0, v1); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		mR, err := r.ncsaClient.MountRemote(p, "gpfs_sdsc")
		if err != nil {
			return err
		}
		g, err := mR.Open(p, "/coherent")
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, units.MiB)
		if err != nil {
			return err
		}
		if got[0] != 1 {
			return fmt.Errorf("v1 not visible remotely")
		}
		// Unsynced overwrite at SDSC (writer re-acquires its token, which
		// revokes NCSA's read token).
		v2 := bytes.Repeat([]byte{2}, int(units.MiB))
		if err := f.WriteBytesAt(p, 0, v2); err != nil {
			return err
		}
		// NCSA reads again: its token was revoked, pages invalidated; the
		// new read must force SDSC's dirty pages to the NSDs.
		got, err = g.ReadBytesAt(p, 0, units.MiB)
		if err != nil {
			return err
		}
		if got[0] != 2 || got[len(got)-1] != 2 {
			return fmt.Errorf("stale bytes after cross-site revoke: %d", got[0])
		}
		return nil
	})
}

func TestMountPaysWANLatency(t *testing.T) {
	t.Parallel()
	// The remote mount involves the auth handshake (2 RTT) + fsinfo +
	// mount.config: at 20 ms RTT that is >= 80 ms of wall clock.
	r := newWANRig(t, auth.ReadOnly, true)
	r.run(t, func(p *sim.Proc) error {
		start := p.Now()
		if _, err := r.ncsaClient.MountRemote(p, "gpfs_sdsc"); err != nil {
			return err
		}
		el := p.Now() - start
		if el < 80*sim.Millisecond {
			return fmt.Errorf("mount took %v, cheaper than 4 WAN RTTs", el)
		}
		return nil
	})
}
