package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// refPool is the reference the pool's index is checked against: the
// occupant map kept by hand with the pool's rules, swept by a full scan
// plus a sort the way the pool did before it had an index.
type refPool struct {
	occ  map[pageKey]*page // current occupant of each key
	live []*page           // occupants, plus stale pages still in flight
}

func (r *refPool) sorted(keep func(*page) bool) []*page {
	var out []*page
	for _, pg := range r.occ {
		if keep(pg) {
			out = append(out, pg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.ino != out[j].key.ino {
			return out[i].key.ino < out[j].key.ino
		}
		return out[i].key.idx < out[j].key.idx
	})
	return out
}

func (r *refPool) drop(pg *page) {
	if r.occ[pg.key] == pg {
		delete(r.occ, pg.key)
	}
	for i, l := range r.live {
		if l == pg {
			r.live = append(r.live[:i], r.live[i+1:]...)
			return
		}
	}
}

// flushable is what the flush code selects from a sweep.
func flushable(pgs []*page) []*page {
	var out []*page
	for _, pg := range pgs {
		if pg.dirty && !pg.flushing {
			out = append(out, pg)
		}
	}
	return out
}

func samePages(t *testing.T, what string, got, want []*page) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: page %v, want %v", what, i, got[i].key, want[i].key)
		}
	}
}

// TestPagePoolIndexMatchesScan drives the pool through seeded random
// adds, stale re-adds, removes of current and stale occupants, discards,
// invalidations and dirty/clean toggles, and after every step checks each
// ordered sweep against the scan-and-sort reference.
func TestPagePoolIndexMatchesScan(t *testing.T) {
	t.Parallel()
	const inos, blocks, bs = 5, 12, units.Bytes(4)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pp := newPagePool(64, nil)
		ref := &refPool{occ: map[pageKey]*page{}}
		randKey := func() pageKey {
			return pageKey{ino: rng.Int63n(inos), idx: rng.Int63n(blocks)}
		}
		randLive := func() *page {
			if len(ref.live) == 0 {
				return nil
			}
			return ref.live[rng.Intn(len(ref.live))]
		}
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(9); op {
			case 0, 1: // add, over an absent or a stale key
				k := randKey()
				if cur := ref.occ[k]; cur == nil || cur.stale {
					pg := pp.add(k, BlockRef{})
					ref.occ[k] = pg
					ref.live = append(ref.live, pg)
				}
			case 2: // an occupant goes stale with its flush in flight
				if pg := ref.occ[randKey()]; pg != nil {
					pg.stale, pg.flushing = true, true
				}
			case 3: // I/O lands on any page, current occupant or not
				if pg := randLive(); pg != nil {
					pp.markClean(pg)
					pp.remove(pg)
					ref.drop(pg)
				}
			case 4:
				ino, from := rng.Int63n(inos), rng.Int63n(blocks)
				for _, pg := range ref.sorted(func(pg *page) bool { return pg.key.ino == ino && pg.key.idx >= from }) {
					if !pg.fetching && !pg.flushing {
						ref.drop(pg)
					}
				}
				pp.discard(ino, from)
			case 5:
				ino := rng.Int63n(inos)
				start := units.Bytes(rng.Int63n(blocks * int64(bs)))
				end := start + units.Bytes(rng.Int63n(blocks*int64(bs)))
				for _, pg := range ref.sorted(func(pg *page) bool {
					s := units.Bytes(pg.key.idx) * bs
					return pg.key.ino == ino && overlaps(s, s+bs, start, end)
				}) {
					if !pg.dirty && !pg.fetching && !pg.flushing {
						ref.drop(pg)
					}
				}
				pp.invalidate(ino, start, end, bs)
			case 6, 7: // dirty/clean toggle; only a live occupant is written
				if pg := randLive(); pg != nil {
					if pg.dirty {
						pp.markClean(pg)
					} else if !pg.stale {
						pp.markDirty(pg)
					}
				}
			case 8: // I/O starts or ends on a page that is not stale
				if pg := randLive(); pg != nil && !pg.stale {
					pg.flushing, pg.fetching = rng.Intn(2) == 0, rng.Intn(2) == 0
				}
			}

			if len(pp.pages) != len(ref.occ) {
				t.Fatalf("seed %d step %d: %d pages, want %d", seed, step, len(pp.pages), len(ref.occ))
			}
			all := ref.sorted(func(*page) bool { return true })
			samePages(t, "allPages", pp.allPages(), all)
			for ino := int64(0); ino < inos; ino++ {
				of := func(pg *page) bool { return pg.key.ino == ino }
				samePages(t, fmt.Sprintf("pagesOf(%d)", ino), pp.pagesOf(ino), ref.sorted(of))
				samePages(t, fmt.Sprintf("dirtyOf(%d)", ino), flushable(pp.dirtyOf(ino)), flushable(ref.sorted(of)))
			}
			ino := rng.Int63n(inos)
			start := units.Bytes(rng.Int63n(blocks * int64(bs)))
			end := start + units.Bytes(rng.Int63n(blocks*int64(bs)))
			samePages(t, "span", pp.span(ino, start, end, bs), ref.sorted(func(pg *page) bool {
				s := units.Bytes(pg.key.idx) * bs
				return pg.key.ino == ino && overlaps(s, s+bs, start, end)
			}))
			samePages(t, "dirty walk", flushable(pp.dirty), flushable(all))
			nDirty := 0
			for _, pg := range ref.live {
				if pg.dirty {
					nDirty++
				}
			}
			if len(pp.dirty) != nDirty {
				t.Fatalf("seed %d step %d: dirty index holds %d pages, %d are dirty", seed, step, len(pp.dirty), nDirty)
			}
			for i, pg := range pp.dirty {
				if !pg.dirty {
					t.Fatalf("seed %d step %d: clean page %v in the dirty index", seed, step, pg.key)
				}
				if i > 0 && (pg.key.ino < pp.dirty[i-1].key.ino ||
					pg.key.ino == pp.dirty[i-1].key.ino && pg.key.idx < pp.dirty[i-1].key.idx) {
					t.Fatalf("seed %d step %d: dirty index out of order at %d", seed, step, i)
				}
			}
		}
	}
}

// TestUnmountErrorIsDeterministic checks Unmount reports the first
// problem page in (inode, block) order: two pages holding different
// sticky errors and one dirty page must give the same error every time.
func TestUnmountErrorIsDeterministic(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		var pages []*page
		for i := 0; i < 3; i++ {
			f, err := m.Create(p, fmt.Sprintf("/f%d", i), DefaultPerm)
			if err != nil {
				return err
			}
			if err := f.WriteAt(p, 0, 256*units.KiB); err != nil {
				return err
			}
			if err := f.Sync(p); err != nil {
				return err
			}
			pages = append(pages, m.pool.pagesOf(f.ino)[0])
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i].key.ino < pages[j].key.ino })
		// The first and last pages hold the sticky errors a failed fetch
		// leaves; the middle one is dirty with its flush still in flight,
		// so the unmount cannot clean it.
		errA, errB := errors.New("fetch A failed"), errors.New("fetch B failed")
		pages[0].err, pages[2].err = errA, errB
		m.pool.markDirty(pages[1])
		pages[1].flushing = true
		for i := 0; i < 50; i++ {
			if err := m.Unmount(p); !errors.Is(err, errA) {
				return fmt.Errorf("unmount %d: got %v, want %v", i, err, errA)
			}
		}
		pages[0].err, pages[2].err = nil, nil
		pages[1].flushing = false
		m.pool.markClean(pages[1])
		return m.Unmount(p)
	})
}
