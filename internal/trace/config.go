package trace

import (
	"bufio"
	"io"
)

// Config is the full retention/sampling configuration of a Tracer in one
// place. The zero Config is the classic buffer-everything tracer. Exactly
// one retention mode applies; when several are set the precedence is
// Stream > Ring > Discard > buffer, mirroring how the experiment layer
// always resolved the equivalent CLI flags.
type Config struct {
	// SampleOneIn keeps one operation in N (0 or 1 keeps everything).
	// Events with no operation attribution (Op == 0 — engine samples,
	// background instants) are always kept: they are few and
	// scale-independent. Events of unsampled operations are dropped before
	// any retention cost is paid.
	SampleOneIn uint64
	// Observer is invoked for every kept event, in all modes, before
	// retention. The args slice is only valid during the call; observers
	// that need it later must copy.
	Observer func(e Event, args []Arg)
	// Stream, when non-nil, selects streaming mode: every kept event is
	// written to this writer as one JSONL line immediately and never
	// retained, so memory stays O(1) in run length. Events()/Len() see
	// only events recorded before the switch. The first write error is
	// latched and returned by FlushStream; recording continues (dropping
	// output) after an error.
	Stream io.Writer
	// Ring, when > 0, selects ring-buffer mode keeping the last Ring
	// events. Each slot owns a copy of its arguments, so the shared arena
	// never grows. Events() materializes the ring oldest-first.
	Ring int
	// Discard, when true, retains nothing (aggregate-only runs: pair
	// with an Observer).
	Discard bool
}

// Configure applies a complete Config to the tracer, replacing the
// sampling factor, observer, and retention mode. It is the tracer's only
// configuration path.
func (t *Tracer) Configure(cfg Config) {
	if t == nil {
		return
	}
	t.sampleEvery = cfg.SampleOneIn
	t.observer = cfg.Observer
	switch {
	case cfg.Stream != nil:
		t.mode = modeStream
		t.stream = bufio.NewWriterSize(cfg.Stream, 1<<16)
	case cfg.Ring > 0:
		t.mode = modeRing
		t.ring = make([]Event, cfg.Ring)
		t.ringArgs = make([][]Arg, cfg.Ring)
		t.ringNext, t.ringLen = 0, 0
	case cfg.Discard:
		t.mode = modeDiscard
	default:
		t.mode = modeBuffer
	}
}
