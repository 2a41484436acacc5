package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gfs/internal/auth"
	"gfs/internal/netsim"
	"gfs/internal/san"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// newSANRig builds a cluster whose two NSD servers export the LUNs of a
// single small RAID enclosure: 2 sets of 4+P at a 64 KiB stripe unit
// (256 KiB stripe width). With a 128 KiB filesystem block the stripe
// group is 2 blocks, so stripe-aligned allocation and flush gathering
// have real work to do.
func newSANRig(t testing.TB, nClients int, cfg ClientConfig) (*rig, *san.Array) {
	t.Helper()
	s := sim.New()
	nw := netsim.New(s)
	cluster := NewCluster(s, nw, "sdsc", auth.AuthOnly)
	r := &rig{s: s, nw: nw, cl: cluster, sw: nw.NewNode("eth")}
	r.fs = cluster.CreateFS("gpfs0", 128*units.KiB)
	fab := san.NewFabric(s, nw)
	fsw := fab.Switch("san")
	acfg := san.DS4100Config()
	acfg.Sets = 2
	acfg.MembersPer = 5
	acfg.Spares = 0
	acfg.StripeUnit = 64 * units.KiB
	var servers []*NSDServer
	for i := 0; i < 2; i++ {
		node := nw.NewNode(fmt.Sprintf("nsd%d", i))
		nw.DuplexLink(fmt.Sprintf("nsd%d-eth", i), node, r.sw, units.Gbps, 50*sim.Microsecond)
		srv := r.fs.AddServer(fmt.Sprintf("srv%d", i), node, 2)
		fab.AttachHBA(node, fsw, san.FC2, 1)
		servers = append(servers, srv)
	}
	arr := fab.NewArray("ds0", fsw, acfg)
	for l := range arr.Sets {
		r.fs.AddNSD(fmt.Sprintf("a0l%d", l),
			SANStore{Array: arr, LUN: l, Initiator: servers[l%len(servers)].EP}, servers[l%len(servers)])
	}
	mgrNode := nw.NewNode("mgr")
	nw.DuplexLink("mgr-eth", mgrNode, r.sw, units.Gbps, 50*sim.Microsecond)
	r.fs.SetManager(mgrNode, 2)
	r.fs.EnableGather()
	for i := 0; i < nClients; i++ {
		r.addClient(fmt.Sprintf("c%d", i), cfg, Identity{DN: fmt.Sprintf("/O=SDSC/CN=user%d", i)})
	}
	return r, arr
}

// TestGatherFullStripeWrites drives a sequential writer through the full
// stack against real RAID sets with gathering on: every write-behind
// flush must land as a full-stripe write (no read-modify-write), and the
// data must read back exactly from a cold client.
func TestGatherFullStripeWrites(t *testing.T) {
	t.Parallel()
	cfg := DefaultClientConfig()
	cfg.WideTokens = true
	r, arr := newSANRig(t, 2, cfg)
	data := pattern(int(2*units.MiB), 21)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/seq.bin", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		if st := m.Stats(); st.GatheredFlushes == 0 || st.FullStripeWrites == 0 {
			return fmt.Errorf("gathering counters flat: %+v", st)
		}
		if err := f.Close(p); err != nil {
			return err
		}
		mB, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		g, err := mB.Open(p, "/seq.bin")
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("cold read-back mismatch")
		}
		return nil
	})
	var rmw, full uint64
	for _, set := range arr.Sets {
		rmw += set.RMWWrites()
		full += set.FullStripeWrites()
	}
	if rmw != 0 {
		t.Errorf("RMW writes = %d, want 0 for a gathered sequential writer", rmw)
	}
	if full == 0 {
		t.Error("no full-stripe writes reached the RAID sets")
	}
}

// TestGatherFullStripeDegradedRAID fails one member in every RAID set
// before the workload: the full-stripe fast path must skip the dead
// member (parity still covers it) and the bytes must still be exact end
// to end — degraded mode changes timing, never contents.
func TestGatherFullStripeDegradedRAID(t *testing.T) {
	t.Parallel()
	cfg := DefaultClientConfig()
	cfg.WideTokens = true
	r, arr := newSANRig(t, 2, cfg)
	for _, set := range arr.Sets {
		set.FailDisk(2)
	}
	data := pattern(int(2*units.MiB)+4097, 22) // ragged tail: last run is partial
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/degraded.bin", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		mB, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		g, err := mB.Open(p, "/degraded.bin")
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("degraded read-back mismatch")
		}
		return nil
	})
	for _, set := range arr.Sets {
		if !set.Degraded() {
			t.Errorf("set %s no longer degraded — FailDisk lost", set.Name())
		}
		if set.FullStripeWrites() == 0 {
			t.Errorf("set %s saw no full-stripe writes while degraded", set.Name())
		}
	}
}

// TestWideGrantCarveDown runs two writers on one file with opportunistic
// wide grants: the first writer's grant balloons past its desired range,
// the second writer's acquisition must carve it back down (revoke, flush,
// partial release) without losing either writer's bytes or deadlocking.
func TestWideGrantCarveDown(t *testing.T) {
	t.Parallel()
	cfg := DefaultClientConfig()
	cfg.WideTokens = true
	r := newRig(t, 2, 0, 128*units.KiB)
	// Three wide-token clients: writer A, writer B, cold verifier.
	for i := 0; i < 3; i++ {
		r.addClient(fmt.Sprintf("w%d", i), cfg, Identity{DN: fmt.Sprintf("/O=SDSC/CN=wide%d", i)})
	}
	const chunk = 256 * units.KiB
	const hiOff = units.Bytes(1 * units.MiB)
	a := pattern(int(chunk), 31)
	b := pattern(int(chunk), 32)
	a2 := pattern(int(chunk), 33)
	r.run(t, func(p *sim.Proc) error {
		mA, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		mB, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		fA, err := mA.Create(p, "/contended.bin", DefaultPerm)
		if err != nil {
			return err
		}
		// A writes low: with wide tokens the grant stretches far past the
		// desired range (no other holders yet).
		if err := fA.WriteBytesAt(p, 0, a); err != nil {
			return err
		}
		if err := fA.Sync(p); err != nil {
			return err
		}
		if st := mA.Stats(); st.WideTokenGrants == 0 {
			return fmt.Errorf("writer A never got a wide grant: %+v", st)
		}
		// B writes high: the manager must revoke and carve A's wide grant.
		fB, err := mB.Open(p, "/contended.bin")
		if err != nil {
			return err
		}
		if err := fB.WriteBytesAt(p, hiOff, b); err != nil {
			return err
		}
		if err := fB.Sync(p); err != nil {
			return err
		}
		// A writes again just past its first chunk — its carved grant must
		// still cover (or re-acquire) this range without deadlock.
		if err := fA.WriteBytesAt(p, chunk, a2); err != nil {
			return err
		}
		if err := fA.Sync(p); err != nil {
			return err
		}
		if err := fA.Close(p); err != nil {
			return err
		}
		if err := fB.Close(p); err != nil {
			return err
		}
		// Cold verifier reads the composite: A's two chunks, a hole of
		// zeros, then B's chunk.
		mV, err := r.clients[2].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		g, err := mV.Open(p, "/contended.bin")
		if err != nil {
			return err
		}
		want := make([]byte, int(hiOff)+len(b))
		copy(want, a)
		copy(want[chunk:], a2)
		copy(want[hiOff:], b)
		if g.Size() != units.Bytes(len(want)) {
			return fmt.Errorf("size %d, want %d", g.Size(), len(want))
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("composite read-back mismatch")
		}
		return nil
	})
}

// TestParseMmpmonForwardCompat feeds the parser output from a
// hypothetical newer writer: an unknown counter row, a non-integer
// counter, and a whole unknown section. All must be skipped with
// warnings while every known counter still lands.
func TestParseMmpmonForwardCompat(t *testing.T) {
	t.Parallel()
	input := strings.Join([]string{
		"=== mmpmon snapshot t=2.500000s ===",
		"mmpmon node sdsc/c0 fs_io_s OK",
		"cluster: sdsc",
		"filesystem: gpfs0",
		"disks: 2",
		"timestamp: 2.500000",
		"bytes read: 1024",
		"flux capacitance: 88mph", // newer writer: non-integer value
		"bytes written: 2048",
		"mmpmon quantum sdsc/c0 qft_s OK", // unknown section: skip whole
		"entanglement: 42",
		"mmpmon sim events_fired 7 pending 0",
		"",
	}, "\n")
	snap, err := ParseMmpmon(strings.NewReader(input))
	if err != nil {
		t.Fatalf("forward-compat input must parse: %v", err)
	}
	if len(snap.FSIO) != 1 {
		t.Fatalf("fs_io_s sections = %d, want 1", len(snap.FSIO))
	}
	fsio := snap.FSIO[0]
	if fsio.Counters["bytes read"] != 1024 || fsio.Counters["bytes written"] != 2048 {
		t.Errorf("known counters lost: %v", fsio.Counters)
	}
	if _, ok := fsio.Counters["flux capacitance"]; ok {
		t.Error("non-integer counter landed as a value")
	}
	if sims := snap.Kind("sim"); len(sims) != 1 || sims[0].Int("events_fired") != 7 {
		t.Errorf("sim footer after unknown section: %+v, want events_fired 7", sims)
	}
	if len(snap.Warnings) < 2 {
		t.Errorf("warnings = %v, want at least the bad counter and the unknown section", snap.Warnings)
	}
	for _, w := range snap.Warnings {
		if !strings.Contains(w, "line ") {
			t.Errorf("warning without line number: %q", w)
		}
	}

	// Strictness must survive: a malformed known structure is still fatal.
	if _, err := ParseMmpmon(strings.NewReader("mmpmon nsd n0 up read x written 2\n" +
		"mmpmon fs gpfs0 io_s OK\nmmpmon nsd n0 up read x written 2\n")); err == nil {
		t.Error("malformed nsd line inside io_s parsed without error")
	}
}
