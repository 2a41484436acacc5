// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel keeps a virtual clock and a two-tier queue of pending events.
// Events scheduled for the same instant fire in scheduling order, so a
// simulation run is fully reproducible. On top of the raw event queue the
// package offers SimPy-style processes (see Proc) — coroutines switched on
// the caller's thread and run on runners pooled per Sim — and blocking
// primitives (Resource, Signal, WaitGroup, Group) that make sequential
// protocol code readable.
//
// All other packages in this repository — the network, disk, RAID, SAN and
// file-system models — are built on this kernel.
package sim

import (
	"fmt"

	"gfs/internal/trace"
)

// Time is a virtual-time instant or duration in nanoseconds. A single type
// serves both roles (like time.Duration) because simulations start at zero.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Event is a scheduled callback. It comes in two forms:
//
//   - pooled events (Post, PostDaemon): fire-and-forget, recycled through
//     a free list the moment they dispatch — no handle ever escapes;
//   - caller-owned events (Arm): a struct the caller holds, typically
//     embedded in a long-lived one and re-armed across many firings
//     (flow completion estimates, cwnd bumps, process sleeps, RPC
//     deadlines). The owner may Cancel it before it fires. Arm requires
//     an event that is not queued; Rearm also takes a queued one and
//     moves it in place, dispatching exactly as Cancel then Arm.
//
// Both forms take the next sequence number when scheduled, so events at
// one instant fire in scheduling order whatever their form.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	sim  *Sim

	// Queue bookkeeping: queued is the authoritative in-queue flag (an
	// Event zero value is not queued); far says which tier holds it and
	// pos is its index there (see eventQueue).
	queued bool
	far    bool
	pos    int32

	canceled bool
	daemon   bool      // housekeeping: never keeps Run alive (see PostDaemon)
	pooled   bool      // recycled through Sim.free after dispatch (see Post)
	kind     EventKind // engine-telemetry label (see RegisterEventKind)
}

// When returns the virtual time at which the event will fire.
func (e *Event) When() Time { return e.when }

// Canceled reports whether Cancel was called on the event (for a re-armed
// caller-owned event: since it was last armed).
func (e *Event) Canceled() bool { return e.canceled }

// Queued reports whether the event is currently in the queue. A fired,
// canceled, or never-armed event is not queued.
func (e *Event) Queued() bool { return e.queued }

// Cancel prevents the event from firing and removes it from the queue at
// once — heavily rescheduled timers (flow completion estimates) would
// otherwise flood the queue with dead entries. Canceling an already-fired
// or already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.queued {
		e.sim.q.remove(e)
	}
}

// Sim is a discrete-event simulator instance. The zero value is not usable;
// call New.
type Sim struct {
	now     Time
	seq     uint64
	q       eventQueue
	stopped bool

	// idle holds parked process runners ready for the next Go; Run and
	// RunUntil release them on return (see releaseRunners).
	idle []*runner

	// free recycles pooled (Post) events. Its size is bounded by the peak
	// number of in-flight pooled events, not the run length.
	free []*Event

	// tracer receives typed virtual-time events from every layer built on
	// this kernel; nil (the default) disables recording at the cost of one
	// branch per instrumentation site.
	tracer *trace.Tracer

	// probe receives engine-plane telemetry (events/sec, queue depth,
	// per-kind wall attribution); nil (the default) disables it at the
	// cost of one branch per event.
	probe *EngineProbe

	// resources lists every Resource created on this simulator, so stats
	// snapshots can report utilization without the experiment threading
	// each one through by hand.
	resources []*Resource

	// daemons counts queued daemon events (periodic samplers and other
	// housekeeping). Run stops once only daemons remain, so two
	// self-rescheduling ticks can never keep each other — and the run —
	// alive forever.
	daemons int

	// Stats
	fired uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// SetTracer attaches (or, with nil, detaches) a trace recorder. All
// instrumented layers consult it through Tracer().
func (s *Sim) SetTracer(t *trace.Tracer) { s.tracer = t }

// Tracer returns the attached tracer; nil means tracing is disabled, and
// trace.Tracer methods are nil-safe.
func (s *Sim) Tracer() *trace.Tracer { return s.tracer }

// Resources returns every Resource created on this simulator, in creation
// order.
func (s *Sim) Resources() []*Resource { return s.resources }

// EventsFired returns the number of events executed so far.
func (s *Sim) EventsFired() uint64 { return s.fired }

// Pending returns the number of events still queued.
func (s *Sim) Pending() int { return s.q.len() }

// Post schedules fn to run after duration d (d may be zero; the event
// then fires after all currently-running work at this instant) as a
// fire-and-forget event: no handle is returned, so the event struct is
// drawn from — and recycled back into — a free list, costing zero
// steady-state allocations. Use Arm when the caller needs to Cancel or
// move the event.
func (s *Sim) Post(k EventKind, d Time, fn func()) {
	s.post(k, d, fn, false)
}

// PostDaemon posts a daemon event: housekeeping (periodic samplers,
// snapshot ticks) that fires like any event while real work is queued
// but never keeps Run alive by itself. A daemon tick can therefore
// reschedule itself unconditionally; when only daemons remain, Run
// stops and leaves them unfired. Before daemons, every periodic tick
// rescheduled "only while Pending() > 0" — a rule that deadlocks into a
// livelock the moment two independent tickers each count the other as
// pending work.
func (s *Sim) PostDaemon(d Time, fn func()) {
	s.post(KindOther, d, fn, true)
	s.daemons++
}

// Daemons returns the number of queued daemon events.
func (s *Sim) Daemons() int { return s.daemons }

// post queues a pooled event.
func (s *Sim) post(k EventKind, d Time, fn func(), daemon bool) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{sim: s, pooled: true, pos: -1}
	}
	s.seq++
	e.when = s.now + d
	e.seq = s.seq
	e.fn = fn
	e.kind = k
	e.daemon = daemon
	s.q.push(e)
	if s.probe != nil {
		s.probe.notePending(s.q.len())
	}
}

// Arm schedules a caller-owned event to fire fn after duration d. The
// Event is typically embedded in a long-lived struct and re-armed across
// many firings — no allocation after the first. The owner may Cancel a
// queued armed event and re-arm it later; arming an event that is still
// queued panics (Cancel it first, or Rearm it).
func (s *Sim) Arm(e *Event, k EventKind, d Time, fn func()) {
	if e.queued {
		panic("sim: arming an event that is still queued")
	}
	s.arm(e, k, d, fn)
	s.q.push(e)
	if s.probe != nil {
		s.probe.notePending(s.q.len())
	}
}

// Rearm is Arm for an event that may still be queued. A queued event
// moves to its new instant in place — at most one heap sift instead of a
// remove and a push, and nothing at all for a far event that stays far —
// and takes a fresh sequence number just as Cancel then Arm
// would give it, so dispatch order is exactly theirs. An event that is
// not queued is simply armed.
func (s *Sim) Rearm(e *Event, k EventKind, d Time, fn func()) {
	if !e.queued {
		s.Arm(e, k, d, fn)
		return
	}
	s.arm(e, k, d, fn)
	s.q.fix(e)
	if s.probe != nil {
		s.probe.notePending(s.q.len())
	}
}

// arm stamps a caller-owned event with its next firing: instant, a fresh
// sequence number, callback and kind, as an uncanceled event of this sim.
func (s *Sim) arm(e *Event, k EventKind, d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.seq++
	e.when = s.now + d
	e.seq = s.seq
	e.fn = fn
	e.sim = s
	e.kind = k
	e.canceled = false
}

// Step executes the next pending event, advancing the clock. It returns
// false when no events remain.
func (s *Sim) Step() bool {
	e := s.q.pop()
	if e == nil {
		return false
	}
	if e.daemon {
		s.daemons--
	}
	s.now = e.when
	s.fired++
	fn := e.fn
	kind := e.kind
	if e.pooled {
		// Recycle before dispatch: fn never references the event, and a
		// schedule inside fn may immediately reuse the struct.
		e.fn = nil
		s.free = append(s.free, e)
	}
	if s.probe != nil {
		s.probe.exec(kind, fn)
	} else {
		fn()
	}
	return true
}

// Run executes events until only daemon events (if any) remain in the
// queue, or Stop is called. Daemons scheduled at the drain instant
// still fire — a sampler tick coincident with the last real event
// closes its final window — but time never advances for daemons alone.
func (s *Sim) Run() {
	defer s.releaseRunners()
	s.stopped = false
	for !s.stopped {
		if s.q.len() <= s.daemons {
			when, ok := s.q.peekWhen()
			if !ok || when > s.now {
				return
			}
		}
		if !s.Step() {
			return
		}
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (s *Sim) RunUntil(t Time) {
	defer s.releaseRunners()
	s.stopped = false
	for !s.stopped {
		when, ok := s.q.peekWhen()
		if !ok || when > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Stop halts Run/RunUntil after the current event completes.
func (s *Sim) Stop() { s.stopped = true }
