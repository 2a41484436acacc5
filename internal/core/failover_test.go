package core

import (
	"bytes"
	"fmt"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// TestFailoverProbeRediscoversPrimary crashes a primary that has a
// backup, serves reads through the backup, restarts the primary, and
// checks the periodic probe moves traffic back — with no manual reset.
func TestFailoverProbeRediscoversPrimary(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.fs.SetBackup(r.fs.nsds[0], r.fs.servers[1])
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/x", DefaultPerm)
		if err != nil {
			return err
		}
		data := pattern(int(2*units.MiB), 7)
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		r.fs.servers[0].Fail()
		m.DropCaches()
		got, err := f.ReadBytesAt(p, 0, units.Bytes(len(data)))
		if err != nil {
			return fmt.Errorf("read during primary outage: %v", err)
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("failover read mismatch")
		}
		if !m.fo[0].down {
			return fmt.Errorf("primary not marked down after refusal")
		}
		r.fs.servers[0].Recover()
		// Let several probe intervals pass while issuing reads; the probe
		// must notice the primary is back.
		for i := 0; i < 4; i++ {
			p.Sleep(probeInterval)
			m.DropCaches()
			if _, err := f.ReadBytesAt(p, 0, units.Bytes(len(data))); err != nil {
				return err
			}
		}
		if m.fo[0].down {
			return fmt.Errorf("recovered primary still marked down after probing")
		}
		return nil
	})
}

// TestRetryRidesOutShortOutage crashes both servers of an un-backed-up
// filesystem for less than the retry budget and checks the in-flight
// read survives the outage instead of failing.
func TestRetryRidesOutShortOutage(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
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
		// Default policy backs off ~1.27 s in total; restart inside that.
		r.s.Post(sim.KindOther, 300*sim.Millisecond, func() {
			r.fs.servers[0].Recover()
			r.fs.servers[1].Recover()
		})
		m.DropCaches()
		start := p.Now()
		if err := f.ReadAt(p, 0, units.MiB); err != nil {
			return fmt.Errorf("read across short outage: %v", err)
		}
		if waited := p.Now() - start; waited < 300*sim.Millisecond {
			return fmt.Errorf("read finished in %v, before the servers restarted", waited)
		}
		return nil
	})
}

// TestTokenLeaseExpiryStealsFromDeadClient kills a token holder and
// checks a conflicting writer is granted the range after the lease runs
// out rather than blocking forever.
func TestTokenLeaseExpiryStealsFromDeadClient(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 2, 256*units.KiB)
	lease := 2 * sim.Second
	r.fs.SetTokenLease(lease)
	r.run(t, func(p *sim.Proc) error {
		mA, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		mB, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		fA, err := mA.Create(p, "/shared", DefaultPerm|WorldWrite)
		if err != nil {
			return err
		}
		if err := fA.WriteAt(p, 0, units.MiB); err != nil {
			return err
		}
		if err := fA.Sync(p); err != nil {
			return err
		}
		// Client A dies holding exclusive tokens on /shared.
		r.clients[0].Fail()
		fB, err := mB.Open(p, "/shared")
		if err != nil {
			return err
		}
		start := p.Now()
		if err := fB.WriteAt(p, 0, units.MiB); err != nil {
			return fmt.Errorf("write after holder death: %v", err)
		}
		waited := p.Now() - start
		if waited < lease {
			return fmt.Errorf("conflicting write proceeded after %v, before the %v lease expired", waited, lease)
		}
		if waited > lease+sim.Second {
			return fmt.Errorf("conflicting write stalled %v, far beyond the lease", waited)
		}
		// The dead client's registration is gone: later conflicts carve
		// directly instead of waiting out another lease.
		if _, ok := r.fs.cluster.clients[r.clients[0].ID()]; ok {
			return fmt.Errorf("dead client still registered for revocations")
		}
		return nil
	})
}
