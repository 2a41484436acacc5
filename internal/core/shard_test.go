package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// shardedRig builds the standard rig and partitions the token plane
// before any client mounts.
func shardedRig(t testing.TB, nServers, nClients, shards int, blockSize units.Bytes) *rig {
	t.Helper()
	r := newRig(t, nServers, nClients, blockSize)
	r.fs.SetTokenShards(shards)
	return r
}

func TestShardRoutingPureAndStable(t *testing.T) {
	t.Parallel()
	// The client and the coordinator must route identically, so the
	// routing functions have to be pure and canonicalize paths the same
	// way the namespace does.
	for _, n := range []int{1, 2, 4, 7} {
		for _, p := range []string{"/", "/a", "/a/b/c", "/deep/dir/tree/file.dat"} {
			k := pathShard(n, p)
			if k < 0 || k >= n {
				t.Fatalf("pathShard(%d, %q) = %d out of range", n, p, k)
			}
			for _, alias := range []string{p + "/", "//" + strings.TrimPrefix(p, "/")} {
				if got := pathShard(n, alias); got != k {
					t.Errorf("pathShard(%d, %q) = %d, want %d (alias of %q)", n, alias, got, k, p)
				}
			}
		}
		for _, ino := range []int64{0, 1, 5, 1 << 40} {
			if k := inodeShard(n, ino); k < 0 || k >= n {
				t.Fatalf("inodeShard(%d, %d) = %d out of range", n, ino, k)
			}
		}
	}
	// Path-addressed ops follow the path; inode-addressed ops follow the
	// inode; global ops stay at the coordinator.
	if k := metaRoute(4, metaOp{Op: "create", Path: "/x"}); k != pathShard(4, "/x") {
		t.Errorf("create routed to %d, want path shard %d", k, pathShard(4, "/x"))
	}
	if k := metaRoute(4, metaOp{Op: "alloc", Inode: 42}); k != inodeShard(4, 42) {
		t.Errorf("alloc routed to %d, want inode shard %d", k, inodeShard(4, 42))
	}
	if k := metaRoute(4, metaOp{Op: "statfs"}); k != -1 {
		t.Errorf("statfs routed to shard %d, want coordinator", k)
	}
	// Same-shard renames localize; cross-shard renames escalate.
	var same, cross bool
	for i := 0; i < 64 && !(same && cross); i++ {
		a, b := fmt.Sprintf("/r/src%d", i/8), fmt.Sprintf("/r/dest%d", i%8)
		k := metaRoute(4, metaOp{Op: "rename", Path: a, Path2: b})
		if pathShard(4, a) == pathShard(4, b) {
			same = true
			if k != pathShard(4, a) {
				t.Errorf("same-shard rename %q->%q routed to %d", a, b, k)
			}
		} else {
			cross = true
			if k != -1 {
				t.Errorf("cross-shard rename %q->%q routed to %d, want coordinator", a, b, k)
			}
		}
	}
	if !same || !cross {
		t.Fatal("test paths never produced both same- and cross-shard renames")
	}
}

func TestShardedWriteReadCrossClient(t *testing.T) {
	t.Parallel()
	// Data-path smoke with the plane sharded: cross-client read forces a
	// revoke through a shard's home endpoint, and the shard's bulk
	// allocation regions feed the writer's blocks.
	r := shardedRig(t, 4, 2, 4, 256*units.KiB)
	data := pattern(int(2*units.MiB)+99, 7)
	r.run(t, func(p *sim.Proc) error {
		mA, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := mA.Create(p, "/shared.bin", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, data); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		mB, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		g, err := mB.Open(p, "/shared.bin")
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("sharded cross-client read mismatch")
		}
		// The work must actually have run through the shards.
		st := mA.Stats()
		if st.ShardMetaOps == 0 || st.ShardTokenAcquires == 0 {
			return fmt.Errorf("writer bypassed shards: meta=%d tok=%d", st.ShardMetaOps, st.ShardTokenAcquires)
		}
		if st.ShardFallbacks != 0 {
			return fmt.Errorf("unexpected fallbacks: %d", st.ShardFallbacks)
		}
		var grants uint64
		for _, sh := range r.fs.Stats().Shards {
			grants += sh.Grants
		}
		if grants == 0 {
			return fmt.Errorf("no shard served a token grant")
		}
		return nil
	})
}

// raceOnce runs op concurrently on two mounts and returns both errors.
func raceOnce(r *rig, p *sim.Proc, m0, m1 *Mount, op func(q *sim.Proc, m *Mount) error) [2]error {
	var errs [2]error
	wg := sim.NewWaitGroup(r.s)
	wg.Add(2)
	for i, m := range []*Mount{m0, m1} {
		i, m := i, m
		r.s.Go(fmt.Sprintf("racer%d", i), func(q *sim.Proc) {
			errs[i] = op(q, m)
			wg.Done()
		})
	}
	wg.Wait(p)
	return errs
}

// wantOneExist asserts exactly one racer succeeded and the other lost
// with ErrExist.
func wantOneExist(errs [2]error) error {
	var wins, exists int
	for _, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrExist):
			exists++
		default:
			return fmt.Errorf("unexpected racer error: %v", err)
		}
	}
	if wins != 1 || exists != 1 {
		return fmt.Errorf("got %d winners, %d ErrExist (want 1 and 1): %v", wins, exists, errs)
	}
	return nil
}

func TestRacingCreateExactlyOneWins(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := shardedRig(t, 4, 2, shards, 256*units.KiB)
			r.run(t, func(p *sim.Proc) error {
				m0, err := r.clients[0].MountLocal(p, r.fs)
				if err != nil {
					return err
				}
				m1, err := r.clients[1].MountLocal(p, r.fs)
				if err != nil {
					return err
				}
				errs := raceOnce(r, p, m0, m1, func(q *sim.Proc, m *Mount) error {
					_, err := m.Create(q, "/race.dat", DefaultPerm)
					return err
				})
				return wantOneExist(errs)
			})
		})
	}
}

func TestRacingRenameExactlyOneWins(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := shardedRig(t, 4, 2, shards, 256*units.KiB)
			r.run(t, func(p *sim.Proc) error {
				m0, err := r.clients[0].MountLocal(p, r.fs)
				if err != nil {
					return err
				}
				m1, err := r.clients[1].MountLocal(p, r.fs)
				if err != nil {
					return err
				}
				for _, src := range []string{"/srcA", "/srcB"} {
					if _, err := m0.Create(p, src, DefaultPerm); err != nil {
						return err
					}
				}
				srcs := []string{"/srcA", "/srcB"}
				i := 0
				errs := raceOnce(r, p, m0, m1, func(q *sim.Proc, m *Mount) error {
					src := srcs[i]
					i++
					return m.Rename(q, src, "/dst")
				})
				return wantOneExist(errs)
			})
		})
	}
}

func TestShardCrashStealBack(t *testing.T) {
	t.Parallel()
	// Kill a shard's home server mid-run: clients must fall back to the
	// coordinator, the coordinator must wait out the lease and merge the
	// shard's token table into its own (grants preserved — no revoke
	// broadcast), and the stolen shard must refuse traffic permanently,
	// even after its server recovers.
	r := shardedRig(t, 4, 3, 4, 256*units.KiB)
	lease := 200 * sim.Millisecond
	r.fs.SetTokenLease(lease)
	r.run(t, func(p *sim.Proc) error {
		m0, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		m1, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		// Create files until one's inode is homed on shard 0, then write
		// to it so shard 0's table holds a live grant at crash time.
		var victim string
		for i := 0; victim == ""; i++ {
			name := fmt.Sprintf("/pre%d.dat", i)
			f, err := m0.Create(p, name, DefaultPerm)
			if err != nil {
				return err
			}
			a, err := m0.Stat(p, name)
			if err != nil {
				return err
			}
			if inodeShard(4, a.Inode) == 0 {
				victim = name
				if err := f.WriteBytesAt(p, 0, pattern(int(512*units.KiB), 3)); err != nil {
					return err
				}
				if err := f.Sync(p); err != nil {
					return err
				}
			}
		}

		srv0 := r.fs.Servers()[0] // shard 0's round-robin home
		srv0.Fail()
		before := r.s.Now()

		// Find a path homed on shard 0 and create it: the client must see
		// the refusal, fall back, and the coordinator must steal shard 0.
		var downPath string
		for i := 0; downPath == ""; i++ {
			if p2 := fmt.Sprintf("/down%d.dat", i); pathShard(4, p2) == 0 {
				downPath = p2
			}
		}
		if _, err := m0.Create(p, downPath, DefaultPerm); err != nil {
			return fmt.Errorf("create during shard-home outage: %w", err)
		}
		if waited := r.s.Now() - before; waited < lease {
			return fmt.Errorf("steal-back did not wait out the lease: %v < %v", waited, lease)
		}
		if st := m0.Stats(); st.ShardFallbacks == 0 {
			return fmt.Errorf("client never fell back to the coordinator")
		}
		sh := r.fs.Stats().Shards[0]
		if sh.Escalations == 0 {
			return fmt.Errorf("no escalations recorded for the dead shard")
		}
		if sh.Steals == 0 {
			return fmt.Errorf("steal-back moved no holdings (victim %s should be homed here)", victim)
		}

		// A second client discovers the outage independently.
		if _, err := m1.Stat(p, downPath); err != nil {
			return fmt.Errorf("stat via second client: %w", err)
		}

		srv0.Recover()

		// Authority must not fail back: a freshly mounted client routes to
		// the recovered shard, is refused with ErrShardMoved, and lands at
		// the coordinator.
		m2, err := r.clients[2].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		var movedPath string
		for i := 0; movedPath == ""; i++ {
			if p2 := fmt.Sprintf("/post%d.dat", i); pathShard(4, p2) == 0 {
				movedPath = p2
			}
		}
		if _, err := m2.Create(p, movedPath, DefaultPerm); err != nil {
			return fmt.Errorf("create after recovery: %w", err)
		}
		if st := m2.Stats(); st.ShardFallbacks == 0 {
			return fmt.Errorf("recovered shard served traffic it no longer owns")
		}

		// The merged grant kept client caches valid: the victim file reads
		// back through the coordinator's table.
		g, err := m1.Open(p, victim)
		if err != nil {
			return err
		}
		got, err := g.ReadBytesAt(p, 0, g.Size())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, pattern(int(512*units.KiB), 3)) {
			return fmt.Errorf("victim file corrupted across steal-back")
		}
		return nil
	})
}

func TestMmpmonShardCounters(t *testing.T) {
	t.Parallel()
	// Per-shard token counters ride inside the io_s section as plain
	// key/value rows, so an older ParseMmpmon recovers them as counters
	// without new grammar.
	r := shardedRig(t, 2, 2, 4, 256*units.KiB)
	var buf bytes.Buffer
	r.run(t, func(p *sim.Proc) error {
		m0, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m0.Create(p, "/x.dat", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, pattern(int(1*units.MiB), 5)); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		m1, err := r.clients[1].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		g, err := m1.Open(p, "/x.dat")
		if err != nil {
			return err
		}
		if _, err := g.ReadBytesAt(p, 0, g.Size()); err != nil {
			return err
		}
		WriteMmpmon(&buf, r.s, []*Cluster{r.cl})
		return nil
	})
	snap, err := ParseMmpmon(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Warnings) != 0 {
		t.Fatalf("own rendering produced warnings: %v", snap.Warnings)
	}
	if len(snap.FSIO) == 0 || len(snap.IO) == 0 {
		t.Fatalf("missing sections: fs_io_s=%d io_s=%d", len(snap.FSIO), len(snap.IO))
	}
	fsio := snap.FSIO[0]
	for _, key := range []string{"shard meta ops", "shard token acquires", "shard fallbacks"} {
		if _, ok := fsio.Counters[key]; !ok {
			t.Errorf("fs_io_s missing %q; have %v", key, fsio.Counters)
		}
	}
	if fsio.Counters["shard meta ops"] == 0 {
		t.Error("shard meta ops = 0 on a sharded mount that did work")
	}
	io := snap.IO[0]
	var total int64
	for k := 0; k < 4; k++ {
		for _, col := range []string{"grants", "revokes", "escalations", "steals"} {
			key := fmt.Sprintf("token shard %d %s", k, col)
			v, ok := io.Counters[key]
			if !ok {
				t.Fatalf("io_s missing %q", key)
			}
			total += v
		}
	}
	if total == 0 {
		t.Error("all per-shard counters zero after sharded I/O")
	}
}

func TestMmpmonUnshardedOmitsShardRows(t *testing.T) {
	t.Parallel()
	// The unsharded rendering must stay byte-compatible with pre-shard
	// consumers: no per-shard rows at all.
	r := newRig(t, 2, 1, 256*units.KiB)
	var buf bytes.Buffer
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		f, err := m.Create(p, "/y.dat", DefaultPerm)
		if err != nil {
			return err
		}
		if err := f.WriteBytesAt(p, 0, pattern(4096, 2)); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		WriteMmpmon(&buf, r.s, []*Cluster{r.cl})
		return nil
	})
	if strings.Contains(buf.String(), "token shard") {
		t.Fatal("unsharded rendering contains per-shard rows")
	}
	snap, err := ParseMmpmon(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.FSIO[0].Counters["shard meta ops"] != 0 {
		t.Fatal("unsharded mount reported shard meta ops")
	}
}
