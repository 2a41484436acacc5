// Package trace records typed, virtual-time-stamped events from a
// simulation run — the analogue of GPFS trace ("mmtrace") for this
// reproduction. Components emit spans (an RPC, an NSD disk service, a
// flow's life on a conn) and instants (a token grant, a cache miss) onto
// a Tracer attached to the simulator; exporters render the buffer as an
// mmpmon-operator-friendly JSONL dump or as Chrome trace-event JSON that
// Perfetto and chrome://tracing load directly.
//
// Events additionally carry a causal context: an operation ID naming the
// client-level operation (one ReadAt, one background flush, one SANergy
// block read) that caused the event, and a parent span ID linking the
// event into that operation's tree. internal/critpath reconstructs the
// trees and attributes end-to-end latency along the critical path.
//
// The package deliberately depends only on the standard library and keeps
// timestamps as int64 nanoseconds (sim.Time's underlying type), so the
// simulation kernel can hold a *Tracer without an import cycle. All Tracer
// methods are nil-safe: a disabled tracer is a nil pointer and every
// recording site pays exactly one branch. Argument lists are copied into
// a shared arena, so the variadic slice at a call site never escapes —
// a disabled site allocates nothing.
package trace

import "bufio"

// Kind discriminates event shapes.
type Kind uint8

// Event kinds.
const (
	// Span is an interval event with a start time and a duration.
	Span Kind = iota
	// Instant is a point event.
	Instant
)

func (k Kind) String() string {
	if k == Span {
		return "span"
	}
	return "instant"
}

// Arg is one key/value annotation on an event. Values are either int64 or
// string; a two-field union avoids interface boxing on the hot path.
type Arg struct {
	Key  string
	IVal int64
	SVal string
	Str  bool
}

// I builds an integer-valued argument.
func I(key string, v int64) Arg { return Arg{Key: key, IVal: v} }

// S builds a string-valued argument.
func S(key, v string) Arg { return Arg{Key: key, SVal: v, Str: true} }

// Ctx is the causal context carried through an operation: the operation
// ID and the span ID of the nearest enclosing span. The zero Ctx means
// "no causal attribution" and is what every site sees when tracing is
// disabled.
type Ctx struct {
	Op     int64 // operation this work belongs to (0 = none)
	Parent int64 // span ID of the enclosing span (0 = root)
}

// Event is one recorded trace entry. TS and Dur are virtual-time
// nanoseconds; Cat groups events onto a Perfetto "process" (op, rpc,
// flow, nsd, disk, token, cache, auth) and Track onto a named thread
// within it (a client, a server, a conn). Op/SID/Parent place the event
// in its operation's causal tree; argument storage lives in the Tracer's
// arena (see Tracer.EvArgs).
type Event struct {
	Kind   Kind
	TS     int64
	Dur    int64 // spans only
	Cat    string
	Name   string
	Track  string
	Op     int64 // owning operation ID (0 = unattributed)
	SID    int64 // this span's ID (0 for instants and leaf spans)
	Parent int64 // parent span ID (0 = root of its op)

	argPos int32 // offset into the tracer's arg arena
	argN   int32 // number of args
}

// Tracer is an append-only event buffer. It is not safe for concurrent
// use — the simulator is single-threaded, which is also what makes two
// runs of the same seeded experiment produce byte-identical exports.
type Tracer struct {
	events []Event
	args   []Arg // shared arena backing every event's arguments
	ops    int64 // last allocated operation ID
	sids   int64 // last allocated span ID

	// Bounded-memory machinery (see bounded.go). The zero values give the
	// classic buffer-everything behaviour.
	mode        retainMode
	sampleEvery uint64 // keep 1 op in N (0/1 = keep all)
	emitted     uint64 // events that passed sampling, any mode
	observer    func(e Event, args []Arg)
	stream      *bufio.Writer
	streamErr   error
	ring        []Event
	ringArgs    [][]Arg
	ringNext    int
	ringLen     int
	scratch     []Arg // reusable copy handed to observers (args must not escape push)
}

// New returns an empty tracer that buffers everything (the classic
// analysis-grade mode); Configure selects bounded retention and sampling.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether the tracer records (i.e. is non-nil). Callers
// holding a possibly-nil *Tracer may call it unconditionally.
func (t *Tracer) Enabled() bool { return t != nil }

// NewOpID allocates a fresh operation ID (monotonic from 1; 0 on a nil
// tracer, keeping the disabled path branch-only).
func (t *Tracer) NewOpID() int64 {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

// NewSpanID allocates a fresh span ID (monotonic from 1; 0 on nil).
// Span IDs are allocated when work is *issued* so that children created
// while the span is open can name it as parent before it is recorded.
func (t *Tracer) NewSpanID() int64 {
	if t == nil {
		return 0
	}
	t.sids++
	return t.sids
}

func (t *Tracer) push(e Event, args []Arg) {
	if t.sampleEvery > 1 && e.Op != 0 && !sampleKeep(e.Op, t.sampleEvery) {
		return
	}
	t.dispatch(e, args)
}

// SpanCtx records an interval event covering [start, end] nanoseconds,
// attributed to ctx.Op with parent ctx.Parent (the zero Ctx for no
// causal context). sid is the span's own pre-allocated ID (from NewSpanID);
// pass 0 for leaf spans that never hand their ID to children.
func (t *Tracer) SpanCtx(ctx Ctx, sid int64, cat, name, track string, start, end int64, args ...Arg) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.push(Event{
		Kind: Span, TS: start, Dur: dur, Cat: cat, Name: name, Track: track,
		Op: ctx.Op, SID: sid, Parent: ctx.Parent,
	}, args)
}

// InstantCtx records a point event at ts nanoseconds attributed to ctx
// (the zero Ctx for no causal context).
func (t *Tracer) InstantCtx(ctx Ctx, cat, name, track string, ts int64, args ...Arg) {
	if t == nil {
		return
	}
	t.push(Event{
		Kind: Instant, TS: ts, Cat: cat, Name: name, Track: track,
		Op: ctx.Op, Parent: ctx.Parent,
	}, args)
}

// Len returns the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded events in emission order. The slice is the
// tracer's own buffer; callers must not mutate it. In ring mode the ring
// is materialized oldest-first on each call.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if t.mode == modeRing {
		t.linearizeRing()
	}
	return t.events
}

// EvArgs returns the arguments of an event obtained from this tracer's
// Events(). The slice aliases the tracer's arena; callers must not
// mutate or retain it across Reset.
func (t *Tracer) EvArgs(e *Event) []Arg {
	if t == nil || e.argN == 0 {
		return nil
	}
	return t.args[e.argPos : e.argPos+e.argN]
}

// Reset discards all recorded events, keeping capacity. ID allocators
// keep counting so op/span IDs stay unique across a Reset (analysis of a
// later window can never confuse its trees with an earlier one's). The
// retention mode, sampling factor and observer are preserved.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.events = t.events[:0]
	t.args = t.args[:0]
	t.ringNext, t.ringLen = 0, 0
}

// CountByCat returns how many events carry the given category.
func (t *Tracer) CountByCat(cat string) int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.events {
		if t.events[i].Cat == cat {
			n++
		}
	}
	return n
}
