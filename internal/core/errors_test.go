package core

import (
	"errors"
	"fmt"
	"testing"

	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// TestSentinelIdentity checks every exported sentinel survives wrapping
// and that no two sentinels alias each other.
func TestSentinelIdentity(t *testing.T) {
	t.Parallel()
	sentinels := []error{
		ErrNotExist, ErrExist, ErrIsDir, ErrNotDir, ErrPermission,
		ErrNotMounted, ErrDirtyPages, ErrNoSuchDevice, ErrNotEmpty,
		ErrNoSpace, ErrStale, ErrClientDown, ErrServerDown,
		netsim.ErrDeadline,
	}
	for i, s := range sentinels {
		wrapped := fmt.Errorf("layer two: %w", fmt.Errorf("layer one: %w", s))
		if !errors.Is(wrapped, s) {
			t.Errorf("sentinel %v lost through wrapping", s)
		}
		for j, other := range sentinels {
			if i != j && errors.Is(s, other) {
				t.Errorf("sentinel %v aliases %v", s, other)
			}
		}
	}
}

// TestTypedErrorsEndToEnd drives real operations through the full RPC
// stack and checks each failure carries its sentinel.
func TestTypedErrorsEndToEnd(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 2, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		check := func(what string, err error, want error) error {
			if !errors.Is(err, want) {
				return fmt.Errorf("%s: got %v, want %v", what, err, want)
			}
			return nil
		}

		if _, err := m.Open(p, "/missing"); check("open missing", err, ErrNotExist) != nil {
			return check("open missing", err, ErrNotExist)
		}
		if _, err := m.Create(p, "/f", DefaultPerm); err != nil {
			return err
		}
		if _, err := m.Create(p, "/f", DefaultPerm); check("create dup", err, ErrExist) != nil {
			return check("create dup", err, ErrExist)
		}
		if err := m.Mkdir(p, "/d"); err != nil {
			return err
		}
		if _, err := m.Open(p, "/d"); check("open dir", err, ErrIsDir) != nil {
			return check("open dir", err, ErrIsDir)
		}
		if _, err := m.Stat(p, "/f/child"); check("descend file", err, ErrNotDir) != nil {
			return check("descend file", err, ErrNotDir)
		}
		if _, err := m.Create(p, "/d/sub", DefaultPerm); err != nil {
			return err
		}
		if err := m.Remove(p, "/d"); check("rm non-empty", err, ErrNotEmpty) != nil {
			return check("rm non-empty", err, ErrNotEmpty)
		}
		// Client 1 owns nothing under /f: chmod must be refused.
		m1, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		if err := m1.Chmod(p, "/f", OwnerRead); check("chmod non-owner", err, ErrPermission) != nil {
			return check("chmod non-owner", err, ErrPermission)
		}
		// Stale handle: reading past EOF.
		f, err := m.Open(p, "/f")
		if err != nil {
			return err
		}
		if err := f.ReadAt(p, 0, units.MiB); check("read past EOF", err, ErrStale) != nil {
			return check("read past EOF", err, ErrStale)
		}
		// Unknown remote device.
		if _, err := r.clients[0].MountRemote(p, "ghost@nowhere"); check("ghost device", err, ErrNoSuchDevice) != nil {
			return check("ghost device", err, ErrNoSuchDevice)
		}
		// A detached mount refuses everything.
		if err := m1.Unmount(p); err != nil {
			return err
		}
		_, err = m1.Stat(p, "/f")
		if check("stat after unmount", err, ErrNotMounted) != nil {
			return check("stat after unmount", err, ErrNotMounted)
		}
		return nil
	})
}

// TestServerDownSurfacesTyped fails every server (no backups) and checks
// the read error that finally surfaces, after the retry budget runs out,
// still wraps ErrServerDown.
func TestServerDownSurfacesTyped(t *testing.T) {
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
		m.DropCaches()
		err = f.ReadAt(p, 0, units.MiB)
		if !errors.Is(err, ErrServerDown) {
			return fmt.Errorf("read with all servers down: got %v, want ErrServerDown", err)
		}
		r.fs.servers[0].Recover()
		r.fs.servers[1].Recover()
		p.Sleep(sim.Second)
		return nil
	})
}
