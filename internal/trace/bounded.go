package trace

// Bounded-memory recording modes. The default Tracer buffers every event
// in RAM, which is the right thing for analysis-grade runs but OOMs a
// 1024-node production sweep. Three alternatives bound memory:
//
//   - Streaming: events are JSON-encoded to a writer the instant they are
//     recorded and never retained (Config.Stream).
//   - Ring buffer: only the last N events are retained, each slot owning
//     a private copy of its arguments (Config.Ring).
//   - Discard: nothing is retained at all (Config.Discard) — useful
//     together with an observer that folds events into aggregates
//     incrementally (see internal/critpath.Agg).
//
// Orthogonally, deterministic per-operation sampling (Config.SampleOneIn)
// keeps a hash-selected subset of operations. The selector is a splitmix64
// hash of the operation ID — not an RNG — so two runs of the same seeded
// experiment sample the *same* operations and a sampled export is
// byte-reproducible, a strict line-subset of the full export, and every
// retained operation's causal tree is complete (critpath-analyzable).

// retainMode selects what push does with a kept event.
type retainMode uint8

const (
	modeBuffer  retainMode = iota // append to the in-RAM buffer (default)
	modeStream                    // encode to JSONL immediately, retain nothing
	modeRing                      // keep only the last ringCap events
	modeDiscard                   // retain nothing
)

// SampleOneIn returns the sampling factor (0 or 1 = unsampled).
func (t *Tracer) SampleOneIn() uint64 {
	if t == nil {
		return 0
	}
	return t.sampleEvery
}

// FlushStream flushes the streaming writer and reports the first error
// encountered since streaming was configured (nil in other modes).
func (t *Tracer) FlushStream() error {
	if t == nil || t.stream == nil {
		return nil
	}
	if err := t.stream.Flush(); err != nil && t.streamErr == nil {
		t.streamErr = err
	}
	return t.streamErr
}

// TotalEmitted returns how many events passed sampling since creation,
// regardless of retention mode — the denominator for "how much did the
// ring/stream drop" and the numerator for sampling-coverage checks.
func (t *Tracer) TotalEmitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted
}

// sampleKeep reports whether an event attributed to op survives 1-in-n
// sampling. splitmix64 is a fixed bijective mixer: the decision depends
// only on the operation ID, never on scheduling or wall clock.
func sampleKeep(op int64, n uint64) bool {
	return splitmix64(uint64(op))%n == 0
}

// splitmix64 is the finalizer from Vigna's SplitMix64 generator — a
// well-mixed, allocation-free integer hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dispatch routes a kept event to the active retention mode. The caller's
// args slice is only ever copied or iterated, never handed to code the
// compiler can't see through — that keeps the variadic slice at every
// recording site stack-allocated, so a disabled site still allocates
// nothing. The observer therefore receives a tracer-owned scratch copy.
func (t *Tracer) dispatch(e Event, args []Arg) {
	t.emitted++
	if t.observer != nil {
		t.scratch = append(t.scratch[:0], args...)
		t.observer(e, t.scratch)
	}
	switch t.mode {
	case modeBuffer:
		if len(args) > 0 {
			e.argPos = int32(len(t.args))
			e.argN = int32(len(args))
			t.args = append(t.args, args...)
		}
		t.events = append(t.events, e)
	case modeStream:
		if t.stream != nil && t.streamErr == nil {
			if err := writeEventJSON(t.stream, &e, args); err != nil {
				t.streamErr = err
			} else if err := t.stream.WriteByte('\n'); err != nil {
				t.streamErr = err
			}
		}
	case modeRing:
		slot := t.ringNext
		t.ring[slot] = e
		if len(args) > 0 {
			t.ringArgs[slot] = append(t.ringArgs[slot][:0], args...)
		} else {
			t.ringArgs[slot] = t.ringArgs[slot][:0]
		}
		t.ringNext = (t.ringNext + 1) % len(t.ring)
		if t.ringLen < len(t.ring) {
			t.ringLen++
		}
	case modeDiscard:
	}
}

// linearizeRing rebuilds the in-RAM buffer from the ring, oldest event
// first, so Events()/EvArgs/WriteJSONL work unchanged on a ring tracer.
// Called lazily at export time; idempotent.
func (t *Tracer) linearizeRing() {
	t.events = t.events[:0]
	t.args = t.args[:0]
	start := t.ringNext - t.ringLen
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.ringLen; i++ {
		slot := (start + i) % len(t.ring)
		e := t.ring[slot]
		a := t.ringArgs[slot]
		e.argPos, e.argN = 0, 0
		if len(a) > 0 {
			e.argPos = int32(len(t.args))
			e.argN = int32(len(a))
			t.args = append(t.args, a...)
		}
		t.events = append(t.events, e)
	}
}
