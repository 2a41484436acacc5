package raid

import (
	"fmt"

	"gfs/internal/disk"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// Set is one RAID5 group: n member drives, n-1 of data per stripe plus
// rotating parity (left-symmetric layout). The paper's DS4100s use 8+P
// sets (9 members) of 250 GB SATA drives.
type Set struct {
	sim        *sim.Sim
	name       string
	disks      []*disk.Disk
	stripeUnit units.Bytes // segment size per member disk

	failed int // index of failed member, -1 if healthy

	free []*op // recycled op records

	reads            uint64
	writes           uint64
	rmwWrites        uint64 // partial-stripe (read-modify-write) writes
	fullStripeWrites uint64 // full stripes written without a parity read
}

// NewSet builds a RAID5 set over the given member drives (>= 3) with the
// given per-disk stripe unit.
func NewSet(s *sim.Sim, name string, members []*disk.Disk, stripeUnit units.Bytes) *Set {
	if len(members) < 3 {
		panic(fmt.Sprintf("raid %q: RAID5 needs >= 3 members, got %d", name, len(members)))
	}
	if stripeUnit <= 0 {
		panic(fmt.Sprintf("raid %q: stripe unit %d", name, stripeUnit))
	}
	return &Set{sim: s, name: name, disks: members, stripeUnit: stripeUnit, failed: -1}
}

// Name returns the set name.
func (r *Set) Name() string { return r.name }

// Members returns the number of member drives.
func (r *Set) Members() int { return len(r.disks) }

// DataDisks returns members minus parity.
func (r *Set) DataDisks() int { return len(r.disks) - 1 }

// StripeWidth returns the logical bytes per full stripe.
func (r *Set) StripeWidth() units.Bytes { return r.stripeUnit * units.Bytes(r.DataDisks()) }

// Capacity returns usable (data) capacity.
func (r *Set) Capacity() units.Bytes {
	per := r.disks[0].Params().Capacity
	return per * units.Bytes(r.DataDisks())
}

// BusyTime returns the cumulative member-disk busy time averaged over
// the members, so that a delta of BusyTime over a virtual-time window
// is the set's mean spindle utilization in [0,1] for that window.
func (r *Set) BusyTime() sim.Time {
	var sum sim.Time
	for _, d := range r.disks {
		sum += d.BusyTime()
	}
	return sum / sim.Time(len(r.disks))
}

// Reads returns the number of Read calls served.
func (r *Set) Reads() uint64 { return r.reads }

// Writes returns the number of Write calls served.
func (r *Set) Writes() uint64 { return r.writes }

// RMWWrites returns how many Write calls touched a partial stripe.
func (r *Set) RMWWrites() uint64 { return r.rmwWrites }

// FullStripeWrites returns how many full stripes were written without a
// parity read — the payoff of stripe-aligned write gathering.
func (r *Set) FullStripeWrites() uint64 { return r.fullStripeWrites }

// Degraded reports whether a member has failed.
func (r *Set) Degraded() bool { return r.failed >= 0 }

// FailDisk marks member i failed; reads reconstruct from survivors.
func (r *Set) FailDisk(i int) {
	if i < 0 || i >= len(r.disks) {
		panic(fmt.Sprintf("raid %q: no member %d", r.name, i))
	}
	r.failed = i
}

// RepairDisk clears the failure (after an out-of-band rebuild).
func (r *Set) RepairDisk() { r.failed = -1 }

// parityDisk returns the member holding parity for the given stripe
// (left-symmetric rotation).
func (r *Set) parityDisk(stripe int64) int {
	n := int64(len(r.disks))
	return int((n - 1 - stripe%n) % n)
}

// dataDisk returns the member holding data segment k (0..DataDisks-1) of
// the given stripe, skipping the parity member.
func (r *Set) dataDisk(stripe int64, k int) int {
	p := r.parityDisk(stripe)
	if k < p {
		return k
	}
	return k + 1
}

// diskOffset returns the on-disk byte offset of the given stripe's segment.
func (r *Set) diskOffset(stripe int64) units.Bytes {
	return units.Bytes(stripe) * r.stripeUnit
}

// kindMember labels the events that start a member's work list.
var kindMember = sim.RegisterEventKind("raid.member")

// diskWork is one command in a member's work list.
type diskWork struct {
	op     disk.Op
	offset units.Bytes
	size   units.Bytes
}

// seg is one stripe segment a Write touches.
type seg struct {
	stripe         int64
	k              int
	segOff, segLen units.Bytes
}

// op is one logical request: its per-member work lists and the state of
// running them. A Set recycles its op records, so a request allocates
// nothing once the records' lists have grown to size.
type op struct {
	work    [][]diskWork // indexed by member, in issue order
	members []member
	segs    []seg  // Write's plan scratch
	pending int    // members still running
	wake    func() // resumes the caller once pending reaches zero
}

// member runs one member drive's work list as a chain of disk commands,
// each submitted from the completion of the one before, with no process.
type member struct {
	o       *op
	i       int
	d       *disk.Disk
	next    int // index of the command in service
	cmd     disk.Cmd
	startFn func()
}

// opBatch is how many op records newOp carves at once.
const opBatch = 4

// newOp takes a recycled op record, carving a batch of new ones when
// none is free. A batch's records, member arrays and work-list headers
// are one allocation each; a record's member callbacks are bound the
// first time it is handed out, so records a set never needs cost no
// closures.
func (r *Set) newOp() *op {
	if len(r.free) == 0 {
		nd := len(r.disks)
		ops := make([]op, opBatch)
		members := make([]member, opBatch*nd)
		work := make([][]diskWork, opBatch*nd)
		for j := range ops {
			o := &ops[j]
			o.work = work[j*nd : (j+1)*nd : (j+1)*nd]
			o.members = members[j*nd : (j+1)*nd : (j+1)*nd]
			r.free = append(r.free, o)
		}
	}
	n := len(r.free)
	o := r.free[n-1]
	r.free[n-1] = nil
	r.free = r.free[:n-1]
	if o.members[0].o == nil {
		for i := range o.members {
			m := &o.members[i]
			m.o, m.i = o, i
			m.startFn = m.submit
			m.cmd.Done = m.done
		}
	}
	return o
}

// add appends a command to member i's work list.
func (o *op) add(i int, dop disk.Op, offset, size units.Bytes) {
	o.work[i] = append(o.work[i], diskWork{dop, offset, size})
}

// submit sends the member's current command to its drive.
func (m *member) submit() {
	w := m.o.work[m.i][m.next]
	m.cmd.Op, m.cmd.Offset, m.cmd.Size = w.op, w.offset, w.size
	m.d.Submit(&m.cmd)
}

// done moves to the next command, or finishes the member. The last
// member to finish wakes the caller, which may recycle the op at once,
// so nothing here touches the op after that.
func (m *member) done() {
	m.next++
	if m.next < len(m.o.work[m.i]) {
		m.submit()
		return
	}
	o := m.o
	o.pending--
	if o.pending == 0 {
		o.wake()
	}
}

// coalesce merges adjacent same-op, contiguous entries in a work list —
// the request merging every real RAID controller performs, without which
// a striped read degenerates into per-segment seeks.
func coalesce(ops []diskWork) []diskWork {
	out := ops[:0]
	for _, w := range ops {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.op == w.op && last.offset+last.size == w.offset {
				last.size += w.size
				continue
			}
		}
		out = append(out, w)
	}
	return out
}

// run executes the per-member work lists in parallel and blocks p until
// all complete (a logical RAID op finishes when its slowest member
// does), then recycles o. Each member with work gets one start event,
// posted in member index order: two members finishing at the same
// virtual instant then complete in the same order on every run. The
// members issue exactly the scheduling calls a process per member would
// — a start event, then per command the drive's service event — so the
// event sequence is that of the process form.
func (r *Set) run(p *sim.Proc, o *op) {
	for i, ws := range o.work {
		ws = coalesce(ws)
		o.work[i] = ws
		if len(ws) == 0 {
			continue
		}
		m := &o.members[i]
		m.d = r.disks[i]
		m.next = 0
		o.pending++
		r.sim.Post(kindMember, 0, m.startFn)
	}
	for o.pending > 0 {
		o.wake = p.Suspend()
		p.Block()
	}
	// A caller killed while it waits never gets here: its op stays with
	// the members still running it and is not recycled.
	for i := range o.work {
		o.work[i] = o.work[i][:0]
	}
	o.segs = o.segs[:0]
	r.free = append(r.free, o)
}

// segments invokes fn for every (stripe, segment k, byte range within the
// segment) overlapping [off, off+size), in offset order.
func (r *Set) segments(off, size units.Bytes, fn func(stripe int64, k int, segOff, segLen units.Bytes)) {
	if size <= 0 {
		panic(fmt.Sprintf("raid %q: request size %d", r.name, size))
	}
	if off < 0 || off+size > r.Capacity() {
		panic(fmt.Sprintf("raid %q: request [%d,%d) beyond capacity %d", r.name, off, off+size, r.Capacity()))
	}
	d := units.Bytes(r.DataDisks())
	sw := r.stripeUnit * d
	for cur := off; cur < off+size; {
		stripe := int64(cur / sw)
		inStripe := cur % sw
		k := int(inStripe / r.stripeUnit)
		segOff := inStripe % r.stripeUnit
		segLen := r.stripeUnit - segOff
		if rem := off + size - cur; segLen > rem {
			segLen = rem
		}
		fn(stripe, k, segOff, segLen)
		cur += segLen
	}
}

// Read services a logical read, blocking p for the slowest member.
// Degraded sets reconstruct segments on the failed member by reading the
// whole stripe from survivors.
func (r *Set) Read(p *sim.Proc, off, size units.Bytes) {
	r.reads++
	o := r.newOp()
	r.segments(off, size, func(stripe int64, k int, segOff, segLen units.Bytes) {
		di := r.dataDisk(stripe, k)
		base := r.diskOffset(stripe)
		if di == r.failed {
			// Reconstruct: read the same range from every survivor.
			for m := range r.disks {
				if m != r.failed {
					o.add(m, disk.Read, base+segOff, segLen)
				}
			}
			return
		}
		o.add(di, disk.Read, base+segOff, segLen)
	})
	r.run(p, o)
}

// Write services a logical write. Full stripes write data plus parity in
// one pass, computing parity from the new data alone — the path
// stripe-aligned gathered flushes are built to hit. Partial stripes pay
// read-modify-write: read old data and old parity, then write new data
// and new parity.
func (r *Set) Write(p *sim.Proc, off, size units.Bytes) {
	r.writes++
	o := r.newOp()
	r.segments(off, size, func(stripe int64, k int, segOff, segLen units.Bytes) {
		o.segs = append(o.segs, seg{stripe, k, segOff, segLen})
	})
	// Segments arrive in offset order, so each stripe's are contiguous:
	// plan one stripe at a time.
	sw := r.StripeWidth()
	rmw := false
	for segs := o.segs; len(segs) > 0; {
		n, touched := 0, units.Bytes(0)
		for ; n < len(segs) && segs[n].stripe == segs[0].stripe; n++ {
			touched += segs[n].segLen
		}
		if !r.planStripe(o, segs[:n], touched == sw) {
			rmw = true
		}
		segs = segs[n:]
	}
	if rmw {
		r.rmwWrites++
	}
	r.run(p, o)
}

// planStripe adds one stripe's share of a Write to o's work lists and
// reports whether the stripe was written in full.
func (r *Set) planStripe(o *op, segs []seg, full bool) bool {
	stripe := segs[0].stripe
	base := r.diskOffset(stripe)
	pd := r.parityDisk(stripe)
	if full {
		// Every data segment and the parity segment, no reads.
		for _, sg := range segs {
			if di := r.dataDisk(stripe, sg.k); di != r.failed {
				o.add(di, disk.Write, base+sg.segOff, sg.segLen)
			}
		}
		if pd != r.failed {
			o.add(pd, disk.Write, base, r.stripeUnit)
		}
		r.fullStripeWrites++
		return true
	}
	// Read-modify-write on the touched data segments and the parity.
	for _, sg := range segs {
		if di := r.dataDisk(stripe, sg.k); di != r.failed {
			o.add(di, disk.Read, base+sg.segOff, sg.segLen)
			o.add(di, disk.Write, base+sg.segOff, sg.segLen)
		}
	}
	if pd != r.failed {
		o.add(pd, disk.Read, base, r.stripeUnit)
		o.add(pd, disk.Write, base, r.stripeUnit)
	}
	return false
}

// Rebuild reconstructs the failed member onto a spare, reading every
// stripe from the survivors and writing the spare, then repairs the set.
// It blocks p for the whole rebuild — hours for a 2005 SATA drive, which
// is why the paper's arrays carry hot spares.
func (r *Set) Rebuild(p *sim.Proc, spare *disk.Disk) {
	if r.failed < 0 {
		panic(fmt.Sprintf("raid %q: rebuild with no failed member", r.name))
	}
	per := r.disks[0].Params().Capacity
	const chunk = 8 * units.MiB
	for off := units.Bytes(0); off < per; off += chunk {
		n := chunk
		if off+n > per {
			n = per - off
		}
		o := r.newOp()
		for m := range r.disks {
			if m != r.failed {
				o.add(m, disk.Read, off, n)
			}
		}
		r.run(p, o)
		spare.Access(p, disk.Write, off, n)
	}
	r.disks[r.failed] = spare
	r.failed = -1
}
