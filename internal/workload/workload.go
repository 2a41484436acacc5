// Package workload implements the applications the paper's demonstrations
// ran against the Global File System: the Enzo AMR cosmology writer
// (multiple TB/hour of dump output), network-limited visualization
// readers, the bidirectional sort used at SC'04, NVO-style partial-file
// "database" queries, and the MPI-IO collective pattern of Fig. 11
// (128 MB blocks, 1 MB transfers).
package workload

import (
	"fmt"

	"gfs/internal/core"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// Result summarizes one workload run.
type Result struct {
	Bytes   units.Bytes
	Elapsed sim.Time
	Ops     int
}

// Rate returns the mean data rate.
func (r Result) Rate() units.BytesPerSec {
	if r.Elapsed <= 0 {
		return 0
	}
	return units.BytesPerSec(float64(r.Bytes) / r.Elapsed.Seconds())
}

func (r Result) String() string {
	return fmt.Sprintf("%v in %v (%v)", r.Bytes, r.Elapsed, r.Rate())
}

// Enzo models the AMR cosmology application: alternating compute phases
// and dump phases that stream large output files.
type Enzo struct {
	Mount       *core.Mount
	Dir         string
	Dumps       int
	FilesPer    int
	FileSize    units.Bytes
	IOSize      units.Bytes
	ComputeTime sim.Time
}

// DefaultEnzo writes 4 dumps of 8 x 4 GiB files — a scaled-down version
// of the "Terabyte per hour" runs the paper describes.
func DefaultEnzo(m *core.Mount, dir string) *Enzo {
	return &Enzo{
		Mount: m, Dir: dir,
		Dumps: 4, FilesPer: 8, FileSize: 4 * units.GiB,
		IOSize: 4 * units.MiB, ComputeTime: sim.Minute,
	}
}

// Run executes all dump cycles, returning I/O totals (compute time is
// excluded from Elapsed so Rate is the I/O rate).
func (e *Enzo) Run(p *sim.Proc) (Result, error) {
	var res Result
	if err := e.Mount.Mkdir(p, e.Dir); err != nil {
		return res, err
	}
	for d := 0; d < e.Dumps; d++ {
		if e.ComputeTime > 0 {
			p.Sleep(e.ComputeTime)
		}
		t0 := p.Now()
		for i := 0; i < e.FilesPer; i++ {
			name := fmt.Sprintf("%s/dump%04d.%02d", e.Dir, d, i)
			f, err := e.Mount.Create(p, name, core.DefaultPerm)
			if err != nil {
				return res, err
			}
			w, err := WriteAll(p, f, e.FileSize, e.IOSize)
			res.Bytes += w.Bytes
			res.Ops += w.Ops
			if err != nil {
				return res, err
			}
			if err := f.Close(p); err != nil {
				return res, err
			}
		}
		res.Elapsed += p.Now() - t0
	}
	return res, nil
}

// DumpNames lists the files a completed Enzo run produced.
func (e *Enzo) DumpNames() []string {
	var out []string
	for d := 0; d < e.Dumps; d++ {
		for i := 0; i < e.FilesPer; i++ {
			out = append(out, fmt.Sprintf("%s/dump%04d.%02d", e.Dir, d, i))
		}
	}
	return out
}

// Viz is a fleet of visualization nodes streaming files as fast as the
// network lets them — the SC'03/SC'04 read side.
type Viz struct {
	Mounts []*core.Mount // one per node
	Files  []string      // assigned round-robin
	IOSize units.Bytes
}

// Run streams all assignments in parallel and returns the aggregate.
func (v *Viz) Run(p *sim.Proc) (Result, error) {
	if v.IOSize <= 0 {
		v.IOSize = 4 * units.MiB
	}
	g := sim.NewGroup(p.Sim())
	var res Result
	t0 := p.Now()
	for n, m := range v.Mounts {
		var mine []string
		for i := n; i < len(v.Files); i += len(v.Mounts) {
			mine = append(mine, v.Files[i])
		}
		if len(mine) == 0 {
			continue
		}
		m := m
		g.Go(fmt.Sprintf("viz%d", n), func(vp *sim.Proc) error {
			for _, name := range mine {
				f, err := m.Open(vp, name)
				if err != nil {
					return err
				}
				r, err := ReadAll(vp, f, v.IOSize)
				res.Bytes += r.Bytes
				res.Ops += r.Ops
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	err := g.Wait(p)
	res.Elapsed = p.Now() - t0
	return res, err
}

// Sorter reads an input file and writes an output of OutputSize bytes —
// the network-limited bidirectional load of the SC'04 demonstration.
type Sorter struct {
	Mount      *core.Mount
	Input      string
	Output     string
	OutputSize units.Bytes // bytes written to Output (required)
	IOSize     units.Bytes
}

// Run performs the read pass then the write pass, returning combined
// totals.
func (so *Sorter) Run(p *sim.Proc) (Result, error) {
	if so.OutputSize <= 0 {
		return Result{}, fmt.Errorf("workload: Sorter with no output size")
	}
	if so.IOSize <= 0 {
		so.IOSize = 4 * units.MiB
	}
	var res Result
	t0 := p.Now()
	in, err := so.Mount.Open(p, so.Input)
	if err != nil {
		return res, err
	}
	r, err := ReadAll(p, in, so.IOSize)
	res.Bytes, res.Ops = r.Bytes, r.Ops
	if err != nil {
		return res, err
	}
	out, err := so.Mount.Create(p, so.Output, core.DefaultPerm)
	if err != nil {
		return res, err
	}
	w, err := WriteAll(p, out, so.OutputSize, so.IOSize)
	res.Bytes += w.Bytes
	res.Ops += w.Ops
	if err != nil {
		return res, err
	}
	if err := out.Close(p); err != nil {
		return res, err
	}
	res.Elapsed = p.Now() - t0
	return res, nil
}

// ReadAll reads f from its start to its size in ioSize requests, the last
// clipped at the size.
func ReadAll(p *sim.Proc, f *core.File, ioSize units.Bytes) (Result, error) {
	return stream(p, f.Size(), ioSize, f.ReadAt)
}

// WriteAll writes size bytes to f from offset 0 in ioSize requests, the
// last clipped at size.
func WriteAll(p *sim.Proc, f *core.File, size, ioSize units.Bytes) (Result, error) {
	return stream(p, size, ioSize, f.WriteAt)
}

// stream moves [0, size) through op in ioSize requests.
func stream(p *sim.Proc, size, ioSize units.Bytes, op func(*sim.Proc, units.Bytes, units.Bytes) error) (Result, error) {
	var res Result
	if ioSize <= 0 {
		return res, fmt.Errorf("workload: I/O size %v", ioSize)
	}
	t0 := p.Now()
	for off := units.Bytes(0); off < size; off += ioSize {
		ln := min(ioSize, size-off)
		if err := op(p, off, ln); err != nil {
			return res, err
		}
		res.Bytes += ln
		res.Ops++
	}
	res.Elapsed = p.Now() - t0
	return res, nil
}

// NVO models National-Virtual-Observatory-style access: many small
// partial reads scattered over a huge catalog — the access pattern for
// which wholesale file movement is most wasteful.
type NVO struct {
	Mount     *core.Mount
	Files     []string
	Queries   int
	QuerySize units.Bytes
	Seed      int64
}

// Run issues the queries sequentially (a query session), returning totals.
func (n *NVO) Run(p *sim.Proc) (Result, error) {
	if n.QuerySize <= 0 {
		n.QuerySize = 4 * units.MiB
	}
	var res Result
	rng := newRand(n.Seed)
	t0 := p.Now()
	handles := map[string]*core.File{} // a session keeps its files open
	for q := 0; q < n.Queries; q++ {
		name := n.Files[rng.Intn(len(n.Files))]
		f := handles[name]
		if f == nil {
			var err error
			f, err = n.Mount.Open(p, name)
			if err != nil {
				return res, err
			}
			handles[name] = f
		}
		if f.Size() < n.QuerySize {
			return res, fmt.Errorf("workload: %s smaller than query", name)
		}
		maxOff := f.Size() - n.QuerySize
		off := units.Bytes(rng.Int63n(int64(maxOff) + 1))
		f.Seek(1 << 60) // defeat sequential read-ahead: queries are random
		if err := f.ReadAt(p, off, n.QuerySize); err != nil {
			return res, err
		}
		res.Bytes += n.QuerySize
		res.Ops++
	}
	res.Elapsed = p.Now() - t0
	return res, nil
}

// MPIIO reproduces the Fig. 11 access pattern: N tasks share one file,
// ownership interleaved in BlockSize units, each task moving its blocks
// in Transfer-sized operations.
type MPIIO struct {
	Mounts    []*core.Mount // one per task
	Path      string
	SizePer   units.Bytes // bytes each task moves
	BlockSize units.Bytes // ownership granularity (paper: 128 MB)
	Transfer  units.Bytes // I/O size (paper: 1 MB)
	Write     bool
}

// Run performs the collective operation and returns aggregate totals.
func (mp *MPIIO) Run(p *sim.Proc) (Result, error) {
	nt := len(mp.Mounts)
	if nt == 0 {
		return Result{}, fmt.Errorf("workload: MPIIO with no tasks")
	}
	if mp.BlockSize <= 0 || mp.Transfer <= 0 || mp.SizePer <= 0 {
		return Result{}, fmt.Errorf("workload: MPIIO with zero sizes")
	}
	total := mp.SizePer * units.Bytes(nt)
	// Writers create the file rank-0 style; readers open it.
	var setupErr error
	if mp.Write {
		if _, err := mp.Mounts[0].Create(p, mp.Path, core.DefaultPerm); err != nil {
			setupErr = err
		}
	}
	if setupErr != nil {
		return Result{}, setupErr
	}
	var res Result
	g := sim.NewGroup(p.Sim())
	t0 := p.Now()
	for rank := 0; rank < nt; rank++ {
		rank := rank
		m := mp.Mounts[rank]
		g.Go(fmt.Sprintf("mpi%d", rank), func(tp *sim.Proc) error {
			f, err := m.Open(tp, mp.Path)
			if err != nil {
				return err
			}
			moved := units.Bytes(0)
			for blk := int64(rank); moved < mp.SizePer; blk += int64(nt) {
				base := units.Bytes(blk) * mp.BlockSize
				if base >= total {
					break
				}
				for off := units.Bytes(0); off < mp.BlockSize && moved < mp.SizePer; off += mp.Transfer {
					ln := mp.Transfer
					if off+ln > mp.BlockSize {
						ln = mp.BlockSize - off
					}
					if mp.Write {
						err = f.WriteAt(tp, base+off, ln)
					} else {
						err = f.ReadAt(tp, base+off, ln)
					}
					if err != nil {
						return err
					}
					moved += ln
					res.Ops++
				}
			}
			if mp.Write {
				err = f.Close(tp)
			}
			res.Bytes += moved
			return err
		})
	}
	err := g.Wait(p)
	res.Elapsed = p.Now() - t0
	return res, err
}
