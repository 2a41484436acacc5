package raid

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gfs/internal/disk"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// The reference below is the process-per-member RAID engine the event
// chains replaced: every logical op plans its member work lists in maps
// and spawns one process per member to queue, sleep and release. The
// differential test holds the event form to its exact schedule.

func (r *Set) refRun(p *sim.Proc, work map[int][]diskWork) {
	wg := sim.NewWaitGroup(r.sim)
	for i := range r.disks {
		ops, ok := work[i]
		if !ok {
			continue
		}
		ops = coalesce(ops)
		if len(ops) == 0 {
			continue
		}
		wg.Add(1)
		d := r.disks[i]
		r.sim.Go(r.name+"/member", func(mp *sim.Proc) {
			defer wg.Done()
			for _, w := range ops {
				d.Access(mp, w.op, w.offset, w.size)
			}
		})
	}
	wg.Wait(p)
}

func (r *Set) refRead(p *sim.Proc, off, size units.Bytes) {
	r.reads++
	work := map[int][]diskWork{}
	r.segments(off, size, func(stripe int64, k int, segOff, segLen units.Bytes) {
		di := r.dataDisk(stripe, k)
		base := r.diskOffset(stripe)
		if di == r.failed {
			for m := range r.disks {
				if m == r.failed {
					continue
				}
				work[m] = append(work[m], diskWork{disk.Read, base + segOff, segLen})
			}
			return
		}
		work[di] = append(work[di], diskWork{disk.Read, base + segOff, segLen})
	})
	r.refRun(p, work)
}

func (r *Set) refWrite(p *sim.Proc, off, size units.Bytes) {
	r.writes++
	sw := r.StripeWidth()
	if off%sw == 0 && size > 0 && size%sw == 0 {
		work := map[int][]diskWork{}
		first := int64(off / sw)
		nStripes := int64(size / sw)
		for s := int64(0); s < nStripes; s++ {
			stripe := first + s
			base := r.diskOffset(stripe)
			for k := 0; k < r.DataDisks(); k++ {
				if di := r.dataDisk(stripe, k); di != r.failed {
					work[di] = append(work[di], diskWork{disk.Write, base, r.stripeUnit})
				}
			}
			if pd := r.parityDisk(stripe); pd != r.failed {
				work[pd] = append(work[pd], diskWork{disk.Write, base, r.stripeUnit})
			}
		}
		r.fullStripeWrites += uint64(nStripes)
		r.refRun(p, work)
		return
	}
	work := map[int][]diskWork{}
	rmw := false
	type stripeAcc struct {
		touched units.Bytes
		ops     []seg
	}
	stripes := map[int64]*stripeAcc{}
	order := []int64{}
	r.segments(off, size, func(stripe int64, k int, segOff, segLen units.Bytes) {
		sa := stripes[stripe]
		if sa == nil {
			sa = &stripeAcc{}
			stripes[stripe] = sa
			order = append(order, stripe)
		}
		sa.touched += segLen
		sa.ops = append(sa.ops, seg{stripe, k, segOff, segLen})
	})
	for _, stripe := range order {
		sa := stripes[stripe]
		base := r.diskOffset(stripe)
		pd := r.parityDisk(stripe)
		if sa.touched == sw {
			for _, op := range sa.ops {
				di := r.dataDisk(stripe, op.k)
				if di != r.failed {
					work[di] = append(work[di], diskWork{disk.Write, base + op.segOff, op.segLen})
				}
			}
			if pd != r.failed {
				work[pd] = append(work[pd], diskWork{disk.Write, base, r.stripeUnit})
			}
			r.fullStripeWrites++
			continue
		}
		rmw = true
		for _, op := range sa.ops {
			di := r.dataDisk(stripe, op.k)
			if di != r.failed {
				work[di] = append(work[di],
					diskWork{disk.Read, base + op.segOff, op.segLen},
					diskWork{disk.Write, base + op.segOff, op.segLen})
			}
		}
		if pd != r.failed {
			work[pd] = append(work[pd],
				diskWork{disk.Read, base, r.stripeUnit},
				diskWork{disk.Write, base, r.stripeUnit})
		}
	}
	if rmw {
		r.rmwWrites++
	}
	r.refRun(p, work)
}

func (r *Set) refRebuild(p *sim.Proc, spare *disk.Disk) {
	per := r.disks[0].Params().Capacity
	const chunk = 8 * units.MiB
	for off := units.Bytes(0); off < per; off += chunk {
		n := chunk
		if off+n > per {
			n = per - off
		}
		work := map[int][]diskWork{}
		for m := range r.disks {
			if m == r.failed {
				continue
			}
			work[m] = append(work[m], diskWork{disk.Read, off, n})
		}
		r.refRun(p, work)
		spare.Access(p, disk.Write, off, n)
	}
	r.disks[r.failed] = spare
	r.failed = -1
}

// mixOp is one step of a differential client's script.
type mixOp struct {
	pause     sim.Time
	write     bool
	off, size units.Bytes
}

// mixScript draws each client's ops from seed, independent of timing, so
// both engines run the same requests: partial and full stripes, single
// and multi-stripe, aligned and not.
func mixScript(seed int64, clients, ops int, sw, unit, capacity units.Bytes) [][]mixOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]mixOp, clients)
	for c := range out {
		for i := 0; i < ops; i++ {
			var off, size units.Bytes
			switch rng.Intn(4) {
			case 0: // one partial segment
				off = units.Bytes(rng.Int63n(int64(capacity-sw))) / 512 * 512
				size = units.Bytes(1+rng.Intn(int(unit/512))) * 512
			case 1: // full stripes
				off = units.Bytes(rng.Int63n(int64(capacity/sw-4))) * sw
				size = units.Bytes(1+rng.Intn(3)) * sw
			case 2: // unaligned span over several stripes
				off = units.Bytes(rng.Int63n(int64(capacity-4*sw))) / 4096 * 4096
				size = units.Bytes(1+rng.Intn(int(3*sw/4096))) * 4096
			default: // stripe-aligned start, ragged end
				off = units.Bytes(rng.Int63n(int64(capacity/sw-4))) * sw
				size = sw + units.Bytes(1+rng.Intn(int(sw/4096)-1))*4096
			}
			out[c] = append(out[c], mixOp{
				pause: sim.Time(rng.Intn(30)) * sim.Millisecond,
				write: rng.Intn(2) == 0,
				off:   off, size: size,
			})
		}
	}
	return out
}

// runMix drives one engine through the script — concurrent RAID clients,
// raw Access callers on the member drives, a member failure, a caller
// killed mid-op and a Rebuild onto a spare — and returns a log line per
// op return (virtual time, op id, events fired) plus the final counters.
func runMix(seed int64, ref bool, small disk.Params) []string {
	const members = 9
	s := sim.New()
	disks := make([]*disk.Disk, members)
	for i := range disks {
		disks[i] = disk.New(s, fmt.Sprintf("m%d", i), small)
	}
	r := NewSet(s, "r5", append([]*disk.Disk(nil), disks...), 64*units.KiB)
	spare := disk.New(s, "spare", small)
	read, write, rebuild := r.Read, r.Write, r.Rebuild
	if ref {
		read, write, rebuild = r.refRead, r.refWrite, r.refRebuild
	}
	var log []string
	note := func(id string) {
		log = append(log, fmt.Sprintf("%d %s %d", s.Now(), id, s.EventsFired()))
	}
	script := mixScript(seed, 8, 40, r.StripeWidth(), 64*units.KiB, r.Capacity())
	var victim *sim.Proc
	inOp := make([]bool, len(script))
	for c, ops := range script {
		c, ops := c, ops
		pr := s.Go("client", func(p *sim.Proc) {
			for i, o := range ops {
				p.Sleep(o.pause)
				inOp[c] = true
				if o.write {
					write(p, o.off, o.size)
				} else {
					read(p, o.off, o.size)
				}
				inOp[c] = false
				note(fmt.Sprintf("c%d.%d", c, i))
			}
		})
		if c == 0 {
			victim = pr
		}
	}
	// Raw callers share the member drives' queues with the RAID chains.
	rng := rand.New(rand.NewSource(seed + 1))
	for c := 0; c < 3; c++ {
		c := c
		type raw struct {
			pause     sim.Time
			d         int
			off, size units.Bytes
		}
		var ops []raw
		for i := 0; i < 30; i++ {
			ops = append(ops, raw{sim.Time(rng.Intn(40)) * sim.Millisecond, rng.Intn(members),
				units.Bytes(rng.Int63n(int64(small.Capacity-units.MiB))) / 512 * 512,
				units.Bytes(1+rng.Intn(256)) * 512})
		}
		s.Go("raw", func(p *sim.Proc) {
			for i, o := range ops {
				p.Sleep(o.pause)
				op := disk.Read
				if i%3 == 0 {
					op = disk.Write
				}
				disks[o.d].Access(p, op, o.off, o.size)
				note(fmt.Sprintf("raw%d.%d", c, i))
			}
		})
	}
	s.Post(sim.KindOther, 150*sim.Millisecond, func() { r.FailDisk(4) })
	s.Post(sim.KindOther, 170*sim.Millisecond, func() {
		note(fmt.Sprintf("kill in op %v", inOp[0]))
		victim.Kill()
	})
	s.Go("rebuild", func(p *sim.Proc) {
		p.Sleep(300 * sim.Millisecond)
		rebuild(p, spare)
		note("rebuild")
	})
	s.Run()
	log = append(log, fmt.Sprintf("end %d events %d reads %d writes %d rmw %d full %d",
		s.Now(), s.EventsFired(), r.reads, r.writes, r.rmwWrites, r.fullStripeWrites))
	for _, d := range append(disks, spare) {
		log = append(log, fmt.Sprintf("%s ops %d busy %d rd %d wr %d", d.Name(), d.Ops(), d.BusyTime(), d.BytesRead(), d.BytesWritten()))
	}
	for _, q := range s.Resources() {
		log = append(log, fmt.Sprintf("%s acquired %d peak %d", q.Name(), q.TotalAcquired(), q.PeakInUse()))
	}
	return log
}

// TestRunMatchesProcessReference: the event-chain engine returns every op
// at the same virtual instant, after the same number of events, as the
// process-per-member reference, and leaves identical drive and queue
// counters.
func TestRunMatchesProcessReference(t *testing.T) {
	t.Parallel()
	sata := disk.SATA250()
	sata.Capacity = 256 * units.MiB
	// Whole-millisecond service times, like the whole-millisecond pauses,
	// put many events on the same instant, where only the (when, seq)
	// tie-break orders them.
	coarse := disk.Params{Capacity: 256 * units.MiB, SeekAvg: 2 * sim.Millisecond,
		CommandOverhead: sim.Millisecond, TransferRate: 512 * 1000}
	for _, pm := range []disk.Params{sata, coarse} {
		killedInOp := false
		for seed := int64(1); seed <= 6; seed++ {
			got, want := runMix(seed, false, pm), runMix(seed, true, pm)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d line %d: %q, reference %q", seed, i, got[i], want[i])
				}
			}
			if len(want) < 300 {
				t.Fatalf("seed %d: only %d log lines", seed, len(want))
			}
			for _, l := range want {
				killedInOp = killedInOp || strings.Contains(l, " kill in op true ")
			}
		}
		if !killedInOp {
			t.Error("no seed killed a caller while its op ran")
		}
	}
}
