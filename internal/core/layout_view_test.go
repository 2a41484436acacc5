package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// TestLayoutViewsMatchCopies runs eight mounts over one shared file
// through strided alloc and layout fetches, a foreign truncate and
// regrowth while views are outstanding, a handle that truncates itself
// and re-extends, and handles opened before the foreign truncate that
// read after it. After every step each handle's layout must equal a
// reference that copies every reply, and every layout a handle held
// earlier must keep its contents: a view of the manager's block list is
// only sound while nothing writes into the array under it.
func TestLayoutViewsMatchCopies(t *testing.T) {
	t.Parallel()
	const bs = 64 * units.KiB
	r := newRig(t, 4, 8, bs)
	r.run(t, func(p *sim.Proc) error {
		files := make([]*File, len(r.clients))
		for i, c := range r.clients {
			m, err := c.MountLocal(p, r.fs)
			if err != nil {
				return err
			}
			if i == 0 {
				files[i], err = m.Create(p, "/shared", DefaultPerm|WorldWrite)
			} else {
				files[i], err = m.Open(p, "/shared")
			}
			if err != nil {
				return err
			}
		}
		ino := r.fs.inodes[files[0].ino]
		ref := make([][]BlockRef, len(files))
		type heldView struct{ view, want []BlockRef }
		var views []heldView
		last := make([][]BlockRef, len(files))

		// verify compares every handle with its reference, records the
		// layouts handles hold now, and checks every layout recorded so far.
		verify := func(step string) error {
			for i, f := range files {
				if !slices.Equal(f.layout, ref[i]) {
					return fmt.Errorf("%s: rank %d layout (%d refs) differs from the copied reference (%d refs)",
						step, i, len(f.layout), len(ref[i]))
				}
				if len(f.layout) > 0 && (len(last[i]) != len(f.layout) || &last[i][0] != &f.layout[0]) {
					views = append(views, heldView{f.layout, slices.Clone(f.layout)})
					last[i] = f.layout
				}
			}
			for k, h := range views {
				if !slices.Equal(h.view, h.want) {
					return fmt.Errorf("%s: layout %d held earlier changed under its holder", step, k)
				}
			}
			return nil
		}
		// copied extends rank i's reference as a copying handle would:
		// the manager's refs [n, end) after its n refs. Steps run one at
		// a time, so the manager's list now is the one that was served.
		copied := func(i int, end int) {
			if n := len(ref[i]); end > n {
				ref[i] = append(slices.Clone(ref[i]), ino.Blocks[n:end]...)
			}
		}
		// fetch runs one ensureAlloc or ensureLayout and checks the
		// layout length a copying handle would reach.
		fetch := func(i int, op string, upto int64) error {
			f := files[i]
			n := int64(len(ref[i]))
			want := n
			var err error
			if op == "alloc" {
				err = f.ensureAlloc(p, upto)
				if n <= upto {
					want = n + max(upto+1-n, allocChunk)
				}
			} else {
				err = f.ensureLayout(p, upto)
				if n <= upto {
					want = max(n, min(int64(len(ino.Blocks)), n+max(upto+1-n, layoutChunk)))
				}
			}
			if err != nil && !(op == "layout" && want <= upto && errors.Is(err, ErrStale)) {
				return fmt.Errorf("rank %d %s to %d: %w", i, op, upto, err)
			}
			if int64(len(f.layout)) != want {
				return fmt.Errorf("rank %d %s to %d: layout has %d refs, want %d", i, op, upto, len(f.layout), want)
			}
			copied(i, int(want))
			return verify(fmt.Sprintf("rank %d %s to %d", i, op, upto))
		}
		truncate := func(i int, blocks int64) error {
			if err := files[i].Truncate(p, units.Bytes(blocks)*bs); err != nil {
				return err
			}
			if int64(len(ref[i])) > blocks {
				ref[i] = ref[i][:blocks]
			}
			return verify(fmt.Sprintf("rank %d truncate to %d blocks", i, blocks))
		}
		// read is a sized ReadAt off the sequential position (no
		// read-ahead), after a Refresh picks up the manager's size.
		read := func(i int, idx int64) error {
			f := files[i]
			if err := f.Refresh(p); err != nil {
				return err
			}
			if err := f.ReadAt(p, units.Bytes(idx)*bs, bs); err != nil {
				return fmt.Errorf("rank %d read block %d: %w", i, idx, err)
			}
			copied(i, len(f.layout))
			return verify(fmt.Sprintf("rank %d read block %d", i, idx))
		}

		// Strided allocation by ranks 0-6, as MPI-IO ranks extend their
		// own regions; rank 7 only reads.
		for round := 0; round < 3; round++ {
			for i := 0; i < 7; i++ {
				if err := fetch(i, "alloc", int64((round*8+i)*48+47)); err != nil {
					return err
				}
			}
		}
		// Strided layout fetches, one past the end of the file.
		for i := range files {
			if err := fetch(i, "layout", int64(len(ino.Blocks))-1-int64(i)*97); err != nil {
				return err
			}
		}
		if err := fetch(7, "layout", int64(len(ino.Blocks))); err != nil {
			return err
		}
		stale7 := len(files[7].layout)

		// Rank 1 shrinks the file under everyone's views and regrows it.
		if err := truncate(1, 50); err != nil {
			return err
		}
		// Another file takes the freed slots first, so the regrown
		// blocks differ from the ones stale layouts still name.
		other, err := files[6].m.Create(p, "/other", DefaultPerm)
		if err != nil {
			return err
		}
		if err := other.ensureAlloc(p, 2000); err != nil {
			return err
		}
		if err := fetch(1, "alloc", 400); err != nil {
			return err
		}
		if err := fetch(0, "alloc", int64(len(ref[0]))+10); err != nil {
			return err
		}
		if err := fetch(4, "layout", 100); err != nil {
			return err
		}
		// Rank 1 writes far out, so the size covers blocks past every
		// stale layout; ranks 5 and 7 (open since before the shrink)
		// then read past the ends of their stale layouts.
		if err := files[1].WriteAt(p, 1500*bs, bs); err != nil {
			return err
		}
		if err := files[1].Sync(p); err != nil {
			return err
		}
		copied(1, len(files[1].layout))
		if err := verify("rank 1 write at block 1500"); err != nil {
			return err
		}
		if err := read(7, int64(stale7)+3); err != nil {
			return err
		}
		if err := read(5, int64(len(ref[5]))+1); err != nil {
			return err
		}

		// Rank 3 truncates itself below its old view and re-extends.
		if err := truncate(3, 20); err != nil {
			return err
		}
		if err := fetch(3, "alloc", 200); err != nil {
			return err
		}
		if err := fetch(3, "layout", 300); err != nil {
			return err
		}
		if err := fetch(2, "layout", int64(len(ref[2]))+5); err != nil {
			return err
		}
		// Everyone catches up; a handle opened now adopts the list.
		for i := range files {
			if err := fetch(i, "layout", int64(len(ino.Blocks))-1); err != nil {
				return err
			}
		}
		late, err := files[6].m.Open(p, "/shared")
		if err != nil {
			return err
		}
		files = append(files, late)
		ref = append(ref, nil)
		last = append(last, nil)
		if err := fetch(8, "layout", int64(len(ino.Blocks))-1); err != nil {
			return err
		}
		if rep := r.fs.Check(); !rep.OK() {
			return fmt.Errorf("fsck: %v", rep.Problems)
		}
		return nil
	})
}

// TestTruncateExtendKeepsBlocks truncates a file down and then out past
// its blocks: the extension is logical, so the block list must neither
// grow into the array's spare capacity nor drop a block, and fsck stays
// clean.
func TestTruncateExtendKeepsBlocks(t *testing.T) {
	t.Parallel()
	const bs = 64 * units.KiB
	r := newRig(t, 2, 1, bs)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/t", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteAt(p, 0, 3*bs); err != nil {
			return err
		}
		if err := f.Truncate(p, bs); err != nil {
			return err
		}
		if err := f.Truncate(p, 10*bs); err != nil {
			return err
		}
		if n := len(r.fs.inodes[f.ino].Blocks); n != 1 {
			return fmt.Errorf("block list has %d refs after extending, want 1", n)
		}
		if rep := r.fs.Check(); !rep.OK() {
			return fmt.Errorf("fsck: %v", rep.Problems)
		}
		return nil
	})
}
