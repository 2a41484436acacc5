package hsm

import (
	"fmt"
	"testing"
	"testing/quick"

	"gfs/internal/sim"
	"gfs/internal/units"
)

func newMgr(s *sim.Sim, diskCap units.Bytes, drives, carts int) *Manager {
	lib := NewLibrary(s, "silo", drives, carts, LTO2())
	return NewManager(s, "hsm", lib, diskCap)
}

func run(t *testing.T, s *sim.Sim, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	done := false
	s.Go("t", func(p *sim.Proc) { err = fn(p); done = true })
	s.Run()
	if !done {
		t.Fatal("deadlock")
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestIngestStaysResidentBelowWatermark(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := newMgr(s, 100*units.GB, 2, 10)
	run(t, s, func(p *sim.Proc) error {
		if err := m.Ingest(p, "/a", 50*units.GB); err != nil {
			return err
		}
		st, ok := m.StateOf("/a")
		if !ok || st != Resident {
			return fmt.Errorf("state = %v, %v", st, ok)
		}
		if m.DiskUsed() != 50*units.GB {
			return fmt.Errorf("disk used = %v", m.DiskUsed())
		}
		return nil
	})
}

func TestWatermarkMigration(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := newMgr(s, 100*units.GB, 2, 10)
	run(t, s, func(p *sim.Proc) error {
		for i := 0; i < 5; i++ {
			if err := m.Ingest(p, fmt.Sprintf("/f%d", i), 19*units.GB); err != nil {
				return err
			}
			p.Sleep(sim.Minute) // distinct access times
		}
		// 95 GB > 90 GB high water: oldest files must migrate to <=75 GB.
		if m.DiskUsed() > 75*units.GB {
			return fmt.Errorf("disk used %v after migration", m.DiskUsed())
		}
		if m.Migrations() == 0 {
			return fmt.Errorf("no migrations recorded")
		}
		st, _ := m.StateOf("/f0")
		if st != Migrated {
			return fmt.Errorf("LRU file /f0 state = %v, want migrated", st)
		}
		st, _ = m.StateOf("/f4")
		if st != Resident {
			return fmt.Errorf("hottest file migrated")
		}
		return nil
	})
}

func TestRecallIsTransparentAndSlow(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := newMgr(s, 100*units.GB, 1, 10)
	run(t, s, func(p *sim.Proc) error {
		for i := 0; i < 5; i++ {
			if err := m.Ingest(p, fmt.Sprintf("/f%d", i), 19*units.GB); err != nil {
				return err
			}
			p.Sleep(sim.Minute)
		}
		st, _ := m.StateOf("/f0")
		if st != Migrated {
			return fmt.Errorf("setup: /f0 not migrated")
		}
		t0 := p.Now()
		prev, err := m.Access(p, "/f0")
		if err != nil {
			return err
		}
		el := p.Now() - t0
		if prev != Migrated {
			return fmt.Errorf("prev state = %v", prev)
		}
		st, _ = m.StateOf("/f0")
		if st != Dual {
			return fmt.Errorf("after recall state = %v, want dual", st)
		}
		// 19 GB at 30 MB/s is ~10.5 min, plus load time.
		if el < 10*sim.Minute {
			return fmt.Errorf("recall took %v; tape cannot be that fast", el)
		}
		if m.Recalls() != 1 {
			return fmt.Errorf("recalls = %d", m.Recalls())
		}
		return nil
	})
}

func TestAccessResidentIsFast(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := newMgr(s, 100*units.GB, 1, 10)
	run(t, s, func(p *sim.Proc) error {
		if err := m.Ingest(p, "/hot", 10*units.GB); err != nil {
			return err
		}
		t0 := p.Now()
		if _, err := m.Access(p, "/hot"); err != nil {
			return err
		}
		if p.Now() != t0 {
			return fmt.Errorf("resident access took time")
		}
		return nil
	})
}

func TestPremigrateKeepsDiskCopy(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := newMgr(s, 100*units.GB, 1, 10)
	run(t, s, func(p *sim.Proc) error {
		if err := m.Ingest(p, "/x", 10*units.GB); err != nil {
			return err
		}
		used := m.DiskUsed()
		if err := m.Premigrate(p, "/x"); err != nil {
			return err
		}
		if m.DiskUsed() != used {
			return fmt.Errorf("premigrate changed disk use")
		}
		st, _ := m.StateOf("/x")
		if st != Dual {
			return fmt.Errorf("state = %v", st)
		}
		// Release is instant and frees disk.
		t0 := p.Now()
		if err := m.Release("/x"); err != nil {
			return err
		}
		if p.Now() != t0 {
			return fmt.Errorf("release took time")
		}
		if m.DiskUsed() != used-10*units.GB {
			return fmt.Errorf("release did not free disk")
		}
		return nil
	})
}

func TestIngestTooLargeFails(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := newMgr(s, 10*units.GB, 1, 4)
	var err error
	s.Go("t", func(p *sim.Proc) { err = m.Ingest(p, "/huge", 20*units.GB) })
	s.Run()
	if err == nil {
		t.Fatal("oversized ingest accepted")
	}
}

func TestCartridgeOverflow(t *testing.T) {
	t.Parallel()
	s := sim.New()
	// 1 cartridge of 200 GB; disk pool small so everything migrates.
	lib := NewLibrary(s, "tiny", 1, 1, LTO2())
	m := NewManager(s, "hsm", lib, 50*units.GB)
	var lastErr error
	s.Go("t", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := m.Ingest(p, fmt.Sprintf("/f%d", i), 45*units.GB); err != nil {
				lastErr = err
				return
			}
			p.Sleep(sim.Minute)
		}
	})
	s.Run()
	if lastErr == nil {
		t.Fatal("library overflow undetected")
	}
}

func TestDualFilesReleasedBeforeTapeWrites(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := newMgr(s, 100*units.GB, 2, 10)
	run(t, s, func(p *sim.Proc) error {
		if err := m.Ingest(p, "/a", 40*units.GB); err != nil {
			return err
		}
		if err := m.Premigrate(p, "/a"); err != nil {
			return err
		}
		p.Sleep(sim.Minute)
		if err := m.Ingest(p, "/b", 40*units.GB); err != nil {
			return err
		}
		p.Sleep(sim.Minute)
		// This pushes past high water; /a is dual, so policy releases it
		// without a second tape write.
		mig0 := m.Migrations()
		if err := m.Ingest(p, "/c", 19*units.GB); err != nil {
			return err
		}
		st, _ := m.StateOf("/a")
		if st != Migrated {
			return fmt.Errorf("/a = %v", st)
		}
		if m.Migrations() != mig0+1 {
			return fmt.Errorf("migrations = %d", m.Migrations())
		}
		return nil
	})
}

// Property: disk accounting is exact — used equals the sum of on-disk file
// sizes after arbitrary ingest/access traffic.
func TestPropertyDiskAccounting(t *testing.T) {
	t.Parallel()
	f := func(sizesRaw []uint8) bool {
		if len(sizesRaw) > 12 {
			sizesRaw = sizesRaw[:12]
		}
		s := sim.New()
		m := newMgr(s, 200*units.GB, 2, 50)
		ok := true
		s.Go("t", func(p *sim.Proc) {
			for i, raw := range sizesRaw {
				size := units.Bytes(int(raw)%30+1) * units.GB
				if err := m.Ingest(p, fmt.Sprintf("/f%d", i), size); err != nil {
					ok = false
					return
				}
				p.Sleep(sim.Minute)
			}
			var want units.Bytes
			for name := range m.files {
				if st, _ := m.StateOf(name); st != Migrated {
					want += m.files[name].size
				}
			}
			if m.DiskUsed() != want {
				ok = false
			}
		})
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
