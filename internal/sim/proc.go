//go:build go1.23

package sim

import (
	"fmt"
	"iter"

	"gfs/internal/trace"
)

// Proc is a simulated process: a coroutine whose execution interleaves
// with the event loop one-at-a-time, SimPy style. Inside the process
// function, blocking calls (Sleep, Resource.Acquire, Signal.Wait,
// WaitGroup.Wait) suspend the process and hand control back to whoever
// resumed it — the event loop, or a process that woke it synchronously;
// the simulator resumes it when the corresponding event fires. At most one
// of the event loop and the processes runs at any moment, so process code
// needs no locking and runs deterministically.
//
// A process runs on a runner borrowed from its Sim's pool when it starts
// and returned when its function returns, so spawning a process costs no
// goroutine of its own.
type Proc struct {
	sim    *Sim
	name   string
	fn     func(p *Proc) // nil once started
	r      *runner       // the runner executing fn; nil before start and once done
	done   bool
	killed bool
	ctx    trace.Ctx // causal context carried into blocking calls (RPC, IO)

	// timer is the process's reusable sleep event (at most one Sleep is
	// outstanding per process, so one embedded Event serves every Sleep
	// without allocating); wakeFn is its prebuilt callback, and also the
	// start event's and every waiter list's.
	timer  Event
	wakeFn func()
}

// runner is a pooled coroutine that executes process functions one after
// another. Switching to it with next and back with yield is a direct
// runtime coroutine switch on the caller's thread: no scheduler round trip,
// no channel. Nested switches are fine — a process that wakes another
// synchronously (Resource.Release, Signal.Fire) resumes it from inside its
// own coroutine and regains control when that one parks.
type runner struct {
	p     *Proc
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Go spawns a process running fn. The process starts at the current virtual
// instant (after currently queued same-time events).
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, fn: fn}
	p.wakeFn = p.wake
	s.Post(KindProcStart, 0, p.wakeFn)
	return p
}

// start binds the process to an idle runner (or a new one) and runs it
// until it first parks or returns. A process killed before its start
// never runs.
func (p *Proc) start() {
	if p.killed {
		p.done = true
		p.fn = nil
		return
	}
	s := p.sim
	var r *runner
	if n := len(s.idle); n > 0 {
		r = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		r = &runner{}
		r.next, r.stop = iter.Pull(r.loop)
	}
	r.p = p
	p.r = r
	r.next()
}

// loop is the runner's coroutine body: run the bound process, return the
// runner to the idle pool, park until the next process (or stop).
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		p := r.p
		p.run()
		p.done = true
		p.r = nil
		r.p = nil
		p.sim.idle = append(p.sim.idle, r)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the process function, converting the internal kill panic
// into a clean return. Any other panic propagates out of the runner and
// surfaces from the next() that resumed it — ultimately from Run on the
// caller's goroutine.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
			// A killed process no longer keeps Run alive.
			p.timer.Cancel()
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// releaseRunners stops every idle runner, ending its goroutine. Runners of
// processes still blocked in the simulator stay parked with them.
func (s *Sim) releaseRunners() {
	for i, r := range s.idle {
		s.idle[i] = nil
		r.stop()
	}
	s.idle = s.idle[:0]
}

// yield parks the process and hands control back to whoever resumed it.
// Called only from the process side.
func (p *Proc) yield() {
	p.r.yield(struct{}{})
	if p.killed {
		panic(procKilled{})
	}
}

type procKilled struct{}

// Kill terminates the process the next time it would resume. Blocking calls
// never return in a killed process; the coroutine unwinds via panic/recover
// internally, and the blocking call it was parked in gives back what it
// held (granted resource units, a pending sleep). Must be called from
// the event loop or another process, not from the process itself.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	// The process is parked somewhere waiting for a resume. Resume it once
	// so it can observe killed and unwind. It may be waiting inside a
	// resource queue; those resumes are harmless on a done process because
	// wake() checks done.
	p.sim.Post(KindWake, 0, p.wakeFn)
}

// wake starts or resumes the process from event context (or synchronously
// from another process). Safe on finished or killed processes: a stale
// wake on a done process is a no-op even after its runner was reused.
func (p *Proc) wake() {
	if p.done {
		return
	}
	if p.r == nil {
		p.start()
		return
	}
	p.r.next()
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Ctx returns the process's causal trace context (zero when tracing is
// off or no operation is in progress).
func (p *Proc) Ctx() trace.Ctx { return p.ctx }

// SetCtx installs a causal trace context on the process. Blocking calls
// made by instrumented components (RPC issue, disk service) read it to
// parent the events they emit. Callers that scope a context to a region
// should restore the previous value afterwards.
func (p *Proc) SetCtx(c trace.Ctx) { p.ctx = c }

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.sim.Arm(&p.timer, KindTimer, d, p.wakeFn)
	p.yield()
}

// WaitUntil suspends the process until absolute virtual time t (no-op if t
// is in the past).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.sim.Now() {
		return
	}
	p.Sleep(t - p.sim.Now())
}

// Suspend parks the process until another party calls wake via the returned
// function. The returned func is safe to call exactly once from event
// context.
func (p *Proc) Suspend() (wake func()) { return p.wakeFn }

// Await starts an operation that completes by callback and blocks the
// process until it does: start receives a done func that the operation
// calls exactly once, from event context or synchronously from start
// itself. It is the bridge from process code to the continuation-form
// APIs (raid.Set.IO, BlockStore.IO).
func (p *Proc) Await(start func(done func())) {
	finished, parked := false, false
	start(func() {
		finished = true
		if parked {
			p.wake()
		}
	})
	for !finished {
		parked = true
		p.yield()
	}
}

// Block parks the process immediately; used together with Suspend by
// resource implementations:
//
//	wake := p.Suspend()
//	registerWaiter(wake)
//	p.Block()
func (p *Proc) Block() { p.yield() }
