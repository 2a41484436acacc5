package workload

import (
	"fmt"

	"gfs/internal/core"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// SCEC models the Southern California Earthquake Center simulations the
// paper's introduction cites: runs that "may write close to 250 Terabytes
// in a single run", checkpointing wave-propagation state at intervals and
// occasionally restarting from the last checkpoint. The parallel writers
// each own a spatial slab of every checkpoint file.
type SCEC struct {
	Mounts      []*core.Mount // one per writer rank
	Dir         string
	Checkpoints int
	SlabSize    units.Bytes // bytes per rank per checkpoint
	IOSize      units.Bytes
	ComputeTime sim.Time
	// RestartAfter, if > 0, re-reads checkpoint RestartAfter-1 (each rank
	// its own slab) after writing that many checkpoints — a failure
	// recovery mid-run.
	RestartAfter int
}

// Run executes the run and returns combined I/O totals.
func (w *SCEC) Run(p *sim.Proc) (Result, error) {
	var res Result
	if len(w.Mounts) == 0 {
		return res, fmt.Errorf("workload: SCEC with no ranks")
	}
	if w.IOSize <= 0 {
		w.IOSize = 4 * units.MiB
	}
	if err := w.Mounts[0].Mkdir(p, w.Dir); err != nil {
		return res, err
	}
	s := p.Sim()
	nRanks := len(w.Mounts)
	ckptName := func(c int) string { return fmt.Sprintf("%s/ckpt%04d", w.Dir, c) }

	slabIO := func(tp *sim.Proc, f *core.File, rank int, write bool) error {
		base := units.Bytes(rank) * w.SlabSize
		for off := units.Bytes(0); off < w.SlabSize; off += w.IOSize {
			ln := w.IOSize
			if off+ln > w.SlabSize {
				ln = w.SlabSize - off
			}
			var err error
			if write {
				err = f.WriteAt(tp, base+off, ln)
			} else {
				err = f.ReadAt(tp, base+off, ln)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	phase := func(ckpt int, write bool) error {
		name := ckptName(ckpt)
		if write {
			if _, err := w.Mounts[0].Create(p, name, core.DefaultPerm); err != nil {
				return err
			}
		}
		g := sim.NewGroup(s)
		t0 := p.Now()
		for rank, m := range w.Mounts {
			rank, m := rank, m
			g.Go(fmt.Sprintf("scec%d", rank), func(tp *sim.Proc) error {
				f, err := m.Open(tp, name)
				if err != nil {
					return err
				}
				if err := slabIO(tp, f, rank, write); err != nil {
					return err
				}
				if write {
					return f.Close(tp)
				}
				return nil
			})
		}
		if err := g.Wait(p); err != nil {
			return err
		}
		res.Bytes += w.SlabSize * units.Bytes(nRanks)
		res.Elapsed += p.Now() - t0
		res.Ops++
		return nil
	}

	for c := 0; c < w.Checkpoints; c++ {
		if w.ComputeTime > 0 {
			p.Sleep(w.ComputeTime)
		}
		if err := phase(c, true); err != nil {
			return res, err
		}
		if w.RestartAfter > 0 && c == w.RestartAfter-1 {
			// Failure: restart from the checkpoint just written.
			if err := phase(c, false); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// TotalWritten returns the bytes a full run writes.
func (w *SCEC) TotalWritten() units.Bytes {
	return units.Bytes(len(w.Mounts)) * w.SlabSize * units.Bytes(w.Checkpoints)
}
