package hsm

import (
	"fmt"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// archivePair builds the SDSC/PSC mutual-second-copy arrangement.
func archivePair(s *sim.Sim) (*Manager, *Manager, *Replicator) {
	sdsc := NewManager(s, "sdsc", NewLibrary(s, "sdsc-silo", 4, 40, LTO2()), 2*units.TB)
	psc := NewManager(s, "psc", NewLibrary(s, "psc-silo", 4, 40, LTO2()), 2*units.TB)
	// TeraGrid between them: ~1 GB/s effective.
	r := NewReplicator(s, sdsc, psc, units.GBps)
	return sdsc, psc, r
}

func TestReplicateCreatesSecondCopy(t *testing.T) {
	t.Parallel()
	s := sim.New()
	sdsc, psc, r := archivePair(s)
	run(t, s, func(p *sim.Proc) error {
		if err := sdsc.Ingest(p, "/enzo-2005", 100*units.GB); err != nil {
			return err
		}
		t0 := p.Now()
		if err := r.Replicate(p, sdsc, "/enzo-2005"); err != nil {
			return err
		}
		el := p.Now() - t0
		if !psc.HasReplicaOf(sdsc, "/enzo-2005") {
			return fmt.Errorf("no replica at psc")
		}
		if psc.HasReplicaOf(psc, "/enzo-2005") {
			return fmt.Errorf("replica recorded under wrong owner")
		}
		// 100 GB: >= WAN (100 s) and peer tape write (~3333 s).
		if el < 3000*sim.Second {
			return fmt.Errorf("replication took only %v", el)
		}
		if r.Replicated() != 1 {
			return fmt.Errorf("replicated = %d", r.Replicated())
		}
		// Idempotent.
		if err := r.Replicate(p, sdsc, "/enzo-2005"); err != nil {
			return err
		}
		if r.Replicated() != 1 {
			return fmt.Errorf("duplicate replication")
		}
		return nil
	})
}

func TestCatastropheAndRestore(t *testing.T) {
	t.Parallel()
	s := sim.New()
	sdsc, _, r := archivePair(s)
	run(t, s, func(p *sim.Proc) error {
		if err := sdsc.Ingest(p, "/nvo", 50*units.GB); err != nil {
			return err
		}
		if err := r.Replicate(p, sdsc, "/nvo"); err != nil {
			return err
		}
		used := sdsc.DiskUsed()
		if err := sdsc.Catastrophe("/nvo"); err != nil {
			return err
		}
		if _, ok := sdsc.StateOf("/nvo"); ok {
			return fmt.Errorf("file survived the catastrophe")
		}
		if sdsc.DiskUsed() != used-50*units.GB {
			return fmt.Errorf("disk accounting after catastrophe: %v", sdsc.DiskUsed())
		}
		if err := r.Restore(p, sdsc, "/nvo"); err != nil {
			return err
		}
		st, ok := sdsc.StateOf("/nvo")
		if !ok || st != Resident {
			return fmt.Errorf("restored state = %v, %v", st, ok)
		}
		if r.Restored() != 1 {
			return fmt.Errorf("restored = %d", r.Restored())
		}
		return nil
	})
}

func TestRestoreWithoutReplicaFails(t *testing.T) {
	t.Parallel()
	s := sim.New()
	sdsc, _, r := archivePair(s)
	run(t, s, func(p *sim.Proc) error {
		if err := sdsc.Ingest(p, "/lost", 10*units.GB); err != nil {
			return err
		}
		if err := sdsc.Catastrophe("/lost"); err != nil {
			return err
		}
		if err := r.Restore(p, sdsc, "/lost"); err == nil {
			return fmt.Errorf("restore without replica succeeded")
		}
		return nil
	})
}

func TestRestoreOfLiveFileFails(t *testing.T) {
	t.Parallel()
	s := sim.New()
	sdsc, _, r := archivePair(s)
	run(t, s, func(p *sim.Proc) error {
		if err := sdsc.Ingest(p, "/alive", 10*units.GB); err != nil {
			return err
		}
		if err := r.Replicate(p, sdsc, "/alive"); err != nil {
			return err
		}
		if err := r.Restore(p, sdsc, "/alive"); err == nil {
			return fmt.Errorf("restore over a live file succeeded")
		}
		return nil
	})
}

func TestReplicateMigratedFileReadsTape(t *testing.T) {
	t.Parallel()
	s := sim.New()
	sdsc, psc, r := archivePair(s)
	run(t, s, func(p *sim.Proc) error {
		if err := sdsc.Ingest(p, "/cold", 100*units.GB); err != nil {
			return err
		}
		if err := sdsc.Premigrate(p, "/cold"); err != nil {
			return err
		}
		if err := sdsc.Release("/cold"); err != nil {
			return err
		}
		t0 := p.Now()
		if err := r.Replicate(p, sdsc, "/cold"); err != nil {
			return err
		}
		el := p.Now() - t0
		// Source tape read (~3333 s) + WAN + dest tape write (~3333 s).
		if el < 6000*sim.Second {
			return fmt.Errorf("migrated-source replication took only %v", el)
		}
		if !psc.HasReplicaOf(sdsc, "/cold") {
			return fmt.Errorf("no replica")
		}
		return nil
	})
}

func TestReplicatorRejectsForeignManager(t *testing.T) {
	t.Parallel()
	s := sim.New()
	_, _, r := archivePair(s)
	stranger := NewManager(s, "ncsa", NewLibrary(s, "x", 1, 2, LTO2()), units.TB)
	var err error
	s.Go("t", func(p *sim.Proc) {
		_ = stranger.Ingest(p, "/f", units.GB)
		err = r.Replicate(p, stranger, "/f")
	})
	s.Run()
	if err == nil {
		t.Fatal("foreign manager accepted")
	}
}

func TestMutualSecondCopies(t *testing.T) {
	t.Parallel()
	// Both directions, as SDSC and PSC ran it.
	s := sim.New()
	sdsc, psc, r := archivePair(s)
	run(t, s, func(p *sim.Proc) error {
		if err := sdsc.Ingest(p, "/west", 20*units.GB); err != nil {
			return err
		}
		if err := psc.Ingest(p, "/east", 30*units.GB); err != nil {
			return err
		}
		if err := r.Replicate(p, sdsc, "/west"); err != nil {
			return err
		}
		if err := r.Replicate(p, psc, "/east"); err != nil {
			return err
		}
		if !psc.HasReplicaOf(sdsc, "/west") || !sdsc.HasReplicaOf(psc, "/east") {
			return fmt.Errorf("mutual replication incomplete")
		}
		return nil
	})
}
