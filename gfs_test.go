package gfs_test

// Integration tests driving the public facade the way a downstream user
// would: multi-site topologies, remote mounts, identity, and the
// experiment registry.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gfs"
)

func TestFacadeEndToEnd(t *testing.T) {
	t.Parallel()
	s := gfs.NewSim()
	nw := gfs.NewNetwork(s)

	sdsc := gfs.NewSite(s, nw, "sdsc")
	sdsc.BuildFS(gfs.FSOptions{
		Name: "gpfs-wan", BlockSize: gfs.MiB,
		Servers: 4, ServerEth: gfs.Gbps,
		StoreRate: 400 * gfs.MBps, StoreCap: gfs.TB, StoreStreams: 4,
	})
	ncsa := gfs.NewSite(s, nw, "ncsa")
	nw.DuplexLink("teragrid", sdsc.Switch, ncsa.Switch, 10*gfs.Gbps, 15*gfs.Millisecond)
	device := gfs.Peer(sdsc, ncsa, gfs.ReadWrite)

	writer := sdsc.AddClients(1, gfs.Gbps, gfs.DefaultClientConfig())[0]
	reader := ncsa.AddClients(1, gfs.Gbps, gfs.DefaultClientConfig())[0]

	payload := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C}, 1<<19) // 1.5 MiB
	var failed string
	s.Go("e2e", func(p *gfs.Proc) {
		fail := func(msg string) { failed = msg }
		mw, err := writer.MountLocal(p, sdsc.FS)
		if err != nil {
			fail(err.Error())
			return
		}
		f, err := mw.Create(p, "/dataset", gfs.DefaultPerm)
		if err != nil {
			fail(err.Error())
			return
		}
		if err := f.WriteBytesAt(p, 0, payload); err != nil {
			fail(err.Error())
			return
		}
		if err := f.Close(p); err != nil {
			fail(err.Error())
			return
		}
		mr, err := reader.MountRemote(p, device)
		if err != nil {
			fail(err.Error())
			return
		}
		g, err := mr.Open(p, "/dataset")
		if err != nil {
			fail(err.Error())
			return
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			fail(err.Error())
			return
		}
		if !bytes.Equal(got, payload) {
			fail("cross-site payload mismatch")
			return
		}
		// mmdf through the facade.
		st, err := mr.StatFS(p)
		if err != nil {
			fail(err.Error())
			return
		}
		if st.NSDs != 4 || st.Capacity <= st.Free {
			fail("statfs inconsistent")
			return
		}
	})
	s.Run()
	if failed != "" {
		t.Fatal(failed)
	}
	if !sdsc.Cluster.Authenticated("ncsa") {
		t.Error("exporter did not record authentication")
	}
	if rep := sdsc.FS.Check(); !rep.OK() {
		t.Errorf("fsck: %v", rep.Problems)
	}
}

func TestFacadeIdentity(t *testing.T) {
	t.Parallel()
	ca, err := gfs.NewCA("TestGrid CA")
	if err != nil {
		t.Fatal(err)
	}
	ids := gfs.NewIdentityService(ca)
	cred, err := ca.Issue("User", "Org")
	if err != nil {
		t.Fatal(err)
	}
	if err := ids.Site("a").Map(cred.DN(), 100); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	dn, err := ids.CanonicalOwner("a", 100, cred, at)
	if err != nil {
		t.Fatal(err)
	}
	if dn != "/O=Org/CN=User" {
		t.Errorf("dn = %q", dn)
	}
}

func TestExperimentRegistryThroughFacade(t *testing.T) {
	t.Parallel()
	rs := gfs.Experiments()
	if len(rs) != 12 {
		t.Fatalf("registry size %d", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if r.Name == "" || r.Paper == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if seen[r.Name] {
			t.Errorf("duplicate experiment %s", r.Name)
		}
		seen[r.Name] = true
		if !strings.Contains(r.Paper, "Fig.") && !strings.Contains(r.Paper, "§") {
			t.Errorf("%s does not cite the paper: %q", r.Name, r.Paper)
		}
	}
	if _, ok := gfs.ExperimentByName("deisa"); !ok {
		t.Error("deisa missing")
	}
	if _, ok := gfs.ExperimentByName("failover"); !ok {
		t.Error("failover missing")
	}
}

func TestTypedErrorsThroughFacade(t *testing.T) {
	t.Parallel()
	sentinels := []error{
		gfs.ErrNotExist, gfs.ErrExist, gfs.ErrIsDir, gfs.ErrNotDir,
		gfs.ErrPermission, gfs.ErrNotMounted, gfs.ErrDirtyPages,
		gfs.ErrNoSuchDevice, gfs.ErrNotEmpty, gfs.ErrNoSpace, gfs.ErrStale,
		gfs.ErrClientDown, gfs.ErrServerDown, gfs.ErrDeadline,
	}
	for i, s := range sentinels {
		if !errors.Is(fmt.Errorf("op failed: %w", s), s) {
			t.Errorf("sentinel %v lost through wrapping", s)
		}
		for j, other := range sentinels {
			if i != j && errors.Is(s, other) {
				t.Errorf("sentinel %v aliases %v", s, other)
			}
		}
	}
}

func TestFacadeUnitsAndTime(t *testing.T) {
	t.Parallel()
	if gfs.MiB != 1<<20 || gfs.GB != 1e9 {
		t.Error("unit constants wrong")
	}
	if (2 * gfs.Second).Seconds() != 2.0 {
		t.Error("time conversion wrong")
	}
	if got := (10 * gfs.Gbps).Bytes(); got != 1.25*gfs.GBps {
		t.Errorf("rate conversion: %v", got)
	}
}
