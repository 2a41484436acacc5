// Package disk models rotating drives with seek, rotational latency and
// media transfer time, served one command at a time from a FIFO queue.
// Parameter sets match the 2005-era hardware in the paper: 250 GB SATA
// drives inside the FastT100 DS4100 arrays, and 10k RPM FC drives in the
// SC'02-era QFS disk cache.
package disk

import (
	"fmt"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// Op distinguishes reads from writes.
type Op int

// Operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Params describes a drive model.
type Params struct {
	Capacity        units.Bytes
	SeekAvg         sim.Time          // average seek time
	RotationalHalf  sim.Time          // average rotational latency (half a revolution)
	TransferRate    units.BytesPerSec // sustained media rate
	CommandOverhead sim.Time          // controller/command processing per op
}

// SATA250 returns parameters for a 2005-era 250 GB 7200 RPM SATA drive —
// the drive populating the DS4100 arrays (32 arrays x 67 drives in the
// production GFS).
func SATA250() Params {
	return Params{
		Capacity:        250 * units.GB,
		SeekAvg:         sim.Time(8.5 * float64(sim.Millisecond)),
		RotationalHalf:  sim.Time(4.16 * float64(sim.Millisecond)),
		TransferRate:    60 * units.MBps,
		CommandOverhead: 200 * sim.Microsecond,
	}
}

// FC73 returns parameters for a 73 GB 10k RPM Fibre Channel drive, the
// kind behind the SC'02 QFS disk cache.
func FC73() Params {
	return Params{
		Capacity:        73 * units.GB,
		SeekAvg:         sim.Time(4.7 * float64(sim.Millisecond)),
		RotationalHalf:  3 * sim.Millisecond,
		TransferRate:    80 * units.MBps,
		CommandOverhead: 100 * sim.Microsecond,
	}
}

// Disk is one drive instance with its command queue.
type Disk struct {
	sim    *sim.Sim
	name   string
	params Params
	queue  *sim.Resource

	lastEnd units.Bytes // next sequential offset (for seek elision)

	ops       uint64
	bytesRead units.Bytes
	bytesWr   units.Bytes
	busy      sim.Time
}

// New returns a drive.
func New(s *sim.Sim, name string, p Params) *Disk {
	if p.TransferRate <= 0 {
		panic(fmt.Sprintf("disk %q: non-positive transfer rate", name))
	}
	return &Disk{sim: s, name: name, params: p, queue: sim.NewResource(s, name+"/q", 1)}
}

// Name returns the drive name.
func (d *Disk) Name() string { return d.name }

// Params returns the drive parameters.
func (d *Disk) Params() Params { return d.params }

// Ops returns the number of completed commands.
func (d *Disk) Ops() uint64 { return d.ops }

// BytesRead returns cumulative bytes read.
func (d *Disk) BytesRead() units.Bytes { return d.bytesRead }

// BytesWritten returns cumulative bytes written.
func (d *Disk) BytesWritten() units.Bytes { return d.bytesWr }

// BusyTime returns cumulative time spent servicing commands.
func (d *Disk) BusyTime() sim.Time { return d.busy }

// Utilization returns busy time over elapsed time.
func (d *Disk) Utilization() float64 {
	el := d.sim.Now()
	if el <= 0 {
		return 0
	}
	return d.busy.Seconds() / el.Seconds()
}

// ServiceTime returns the no-queue service time for an op at the given
// offset, applying sequential-access seek elision against lastEnd.
func (d *Disk) ServiceTime(op Op, offset, size units.Bytes) sim.Time {
	t := d.params.CommandOverhead
	if offset != d.lastEnd {
		t += d.params.SeekAvg + d.params.RotationalHalf
	}
	t += sim.FromSeconds(float64(size) / float64(d.params.TransferRate))
	return t
}

// Access performs one command, blocking p for queueing plus service time.
func (d *Disk) Access(p *sim.Proc, op Op, offset, size units.Bytes) {
	d.check(offset, size)
	d.queue.Acquire(p, 1)
	p.Sleep(d.begin(op, offset, size))
	d.queue.Release(1)
}

// kindService labels the service-end events of submitted commands.
var kindService = sim.RegisterEventKind("disk.service")

// Cmd is one drive command run from event context, with no process: see
// Submit. The caller owns it and may reuse it once Done has run; the
// callbacks it hands the drive are bound on first use, so a reused Cmd
// costs no allocation.
type Cmd struct {
	Op           Op
	Offset, Size units.Bytes
	// Done runs when the command completes, after the drive has been
	// handed to the next command in its queue.
	Done func()

	d         *Disk
	evt       sim.Event
	grantedFn func()
	endFn     func()
}

// Submit queues c on the drive. When the drive reaches it, c is served
// for the same time Access would take, with the same counters, and then
// the drive is released before c.Done runs — the order in which Access
// releases the drive and returns to its process, so a command makes
// exactly the scheduling calls a process's Access makes.
func (d *Disk) Submit(c *Cmd) {
	d.check(c.Offset, c.Size)
	c.d = d
	if c.grantedFn == nil {
		c.grantedFn = c.granted
		c.endFn = c.end
	}
	d.queue.AcquireFunc(1, c.grantedFn)
}

// granted starts service once c holds the drive.
func (c *Cmd) granted() {
	d := c.d
	d.sim.Arm(&c.evt, kindService, d.begin(c.Op, c.Offset, c.Size), c.endFn)
}

// end hands the drive on, then completes c.
func (c *Cmd) end() {
	c.d.queue.Release(1)
	c.Done()
}

// check panics on a command outside the drive.
func (d *Disk) check(offset, size units.Bytes) {
	if size <= 0 {
		panic(fmt.Sprintf("disk %q: access size %d", d.name, size))
	}
	if offset < 0 || offset+size > d.params.Capacity {
		panic(fmt.Sprintf("disk %q: access [%d,%d) beyond capacity %d", d.name, offset, offset+size, d.params.Capacity))
	}
}

// begin starts serving a command that holds the drive: it books the
// counters, moves the head and returns the service time.
func (d *Disk) begin(op Op, offset, size units.Bytes) sim.Time {
	st := d.ServiceTime(op, offset, size)
	d.lastEnd = offset + size
	d.ops++
	d.busy += st
	if op == Read {
		d.bytesRead += size
	} else {
		d.bytesWr += size
	}
	return st
}

// QueueDepth returns the number of commands waiting (not in service).
func (d *Disk) QueueDepth() int { return d.queue.Queued() }
