package sim

import "fmt"

// Resource is a counted semaphore with a FIFO wait queue — the standard
// building block for modeling servers, disk queues and bounded channels.
type Resource struct {
	sim      *Sim
	name     string
	capacity int
	inUse    int

	// waiters[head:] is the FIFO wait queue; grants advance head
	// instead of reslicing. The array rewinds when it drains and slides
	// down when it fills, so a steady load stops reallocating it.
	waiters []resWaiter
	head    int

	// Stats
	totalAcquired uint64
	peakInUse     int
}

// resWaiter is one queued acquisition: a blocked process, or a
// callback to run from the Release that grants it (see AcquireFunc).
// Both kinds wait in the same FIFO.
type resWaiter struct {
	n       int
	p       *Proc
	granted func()
}

// NewResource returns a resource with the given capacity (> 0). The
// resource is registered on the simulator so stats snapshots can report
// its utilization (see Sim.Resources).
func NewResource(s *Sim, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	r := &Resource{sim: s, name: name, capacity: capacity}
	s.resources = append(s.resources, r)
	return r
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the currently acquired units.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of waiting acquisitions, processes and
// callbacks alike.
func (r *Resource) Queued() int { return len(r.waiters) - r.head }

// PeakInUse returns the high-water mark of acquired units.
func (r *Resource) PeakInUse() int { return r.peakInUse }

// TotalAcquired returns the cumulative number of successful acquisitions.
func (r *Resource) TotalAcquired() uint64 { return r.totalAcquired }

// TryAcquire acquires n units if available, without blocking. It reports
// whether the acquisition happened.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q acquire %d of %d", r.name, n, r.capacity))
	}
	if r.Queued() > 0 || r.inUse+n > r.capacity {
		return false
	}
	r.grant(n)
	return true
}

func (r *Resource) grant(n int) {
	r.inUse += n
	r.totalAcquired++
	if r.inUse > r.peakInUse {
		r.peakInUse = r.inUse
	}
}

// Acquire blocks process p until n units are available, FIFO order. A
// process killed while it waits leaves the queue, or gives back the units
// if they were granted before it could observe the kill.
func (r *Resource) Acquire(p *Proc, n int) {
	if r.TryAcquire(n) {
		return
	}
	r.enqueue(resWaiter{n: n, p: p})
	defer func() {
		if p.killed {
			r.abandon(p, n)
		}
	}()
	p.Block()
}

// AcquireFunc acquires n units for event-context code, which cannot
// block: when the units are free granted runs at once, otherwise it runs
// from the Release that grants them, holding the same FIFO place a
// waiting process would.
func (r *Resource) AcquireFunc(n int, granted func()) {
	if r.TryAcquire(n) {
		granted()
		return
	}
	r.enqueue(resWaiter{n: n, granted: granted})
}

// enqueue appends w to the wait queue. A full array with granted slots
// at its front slides the live waiters down instead of growing, so a
// queue that never drains stays as large as its backlog.
func (r *Resource) enqueue(w resWaiter) {
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[n:])
		r.waiters, r.head = r.waiters[:n], 0
	}
	r.waiters = append(r.waiters, w)
}

// abandon undoes a killed waiter's Acquire.
func (r *Resource) abandon(p *Proc, n int) {
	for i := r.head; i < len(r.waiters); i++ {
		if r.waiters[i].p == p {
			last := len(r.waiters) - 1
			copy(r.waiters[i:], r.waiters[i+1:])
			r.waiters[last] = resWaiter{}
			r.waiters = r.waiters[:last]
			r.rewind()
			r.grantWaiters()
			return
		}
	}
	r.Release(n)
}

// rewind resets the drained wait queue to the start of its array.
func (r *Resource) rewind() {
	if r.head == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.head = 0
	}
}

// Release returns n units and wakes any waiters that now fit.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: resource %q release %d with %d in use", r.name, n, r.inUse))
	}
	r.inUse -= n
	r.grantWaiters()
}

// grantWaiters grants units to waiters in FIFO order while the head fits,
// waking each process, or running each callback, synchronously.
func (r *Resource) grantWaiters() {
	for r.head < len(r.waiters) {
		w := r.waiters[r.head]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters[r.head] = resWaiter{}
		r.head++
		r.rewind()
		r.grant(w.n)
		if w.p != nil {
			w.p.wake()
		} else {
			w.granted()
		}
	}
}

// Signal is a broadcast condition: processes Wait on it and a later Fire
// wakes all current waiters. Unlike sync.Cond there is no lock to reacquire
// — the simulation is single-threaded.
type Signal struct {
	sim     *Sim
	waiters []func()
	fires   uint64
}

// NewSignal returns an empty signal.
func NewSignal(s *Sim) *Signal { return &Signal{sim: s} }

// Wait suspends p until the next Fire.
func (sg *Signal) Wait(p *Proc) {
	sg.waiters = append(sg.waiters, p.Suspend())
	p.Block()
}

// Fire wakes all waiters registered before this call.
func (sg *Signal) Fire() {
	ws := sg.waiters
	sg.waiters = nil
	sg.fires++
	for _, w := range ws {
		w()
	}
}

// Waiters returns the number of processes currently waiting.
func (sg *Signal) Waiters() int { return len(sg.waiters) }

// Fires returns how many times Fire has been called.
func (sg *Signal) Fires() uint64 { return sg.fires }

// WaitGroup counts outstanding work; Wait blocks until the count reaches
// zero. It mirrors sync.WaitGroup for simulated processes.
type WaitGroup struct {
	sim     *Sim
	count   int
	waiters []func()
}

// NewWaitGroup returns a wait group with count zero.
func NewWaitGroup(s *Sim) *WaitGroup { return &WaitGroup{sim: s} }

// Add adjusts the counter by delta; going negative panics.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		ws := wg.waiters
		wg.waiters = nil
		for _, w := range ws {
			w()
		}
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait suspends p until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, p.Suspend())
		p.Block()
	}
}

// Group is a fan-out of work that reports its first error: the
// simulated counterpart of errgroup. Processes join it with Go; event
// callbacks (pipelined RPCs, array I/O) join with Add and leave with
// Done.
type Group struct {
	wg  WaitGroup
	err error
}

// NewGroup returns an empty group.
func NewGroup(s *Sim) *Group { return &Group{wg: WaitGroup{sim: s}} }

// Go spawns a process running fn as a member of the group. The member
// is done when fn returns, or when the process is killed.
func (g *Group) Go(name string, fn func(p *Proc) error) {
	g.wg.Add(1)
	g.wg.sim.Go(name, func(p *Proc) {
		var err error
		defer func() { g.Done(err) }()
		err = fn(p)
	})
}

// Add adds n members that will each call Done.
func (g *Group) Add(n int) { g.wg.Add(n) }

// Done marks one member finished, keeping err if it is the group's
// first error.
func (g *Group) Done(err error) {
	if err != nil && g.err == nil {
		g.err = err
	}
	g.wg.Done()
}

// Wait suspends p until every member is done and returns the first
// error any of them reported.
func (g *Group) Wait(p *Proc) error {
	g.wg.Wait(p)
	return g.err
}
