package sim

// eventQueue is the pending-event queue behind a Sim: a binary min-heap
// under the (when, seq) order. The order is total — seq is unique — so
// dispatch is a pure function of what was scheduled, and a run's event
// sequence, and therefore every trace byte, is reproducible.
//
// The contract is narrow on purpose:
//
//   - push is called only with events not currently queued.
//   - remove is called only with events currently queued (Cancel removes
//     eagerly, so the queue never holds canceled events).
//   - fix is called only with events currently queued, after their
//     (when, seq) key changed (Rearm moves an event in place).
//   - pop returns the minimum event and marks it not-queued; it returns
//     nil when empty.
//
// The queue owns each Event's pos and queued fields; nothing else writes
// them.
type eventQueue struct {
	h []*Event
}

// eventLess is the dispatch order: time first, scheduling sequence as the
// deterministic FIFO tie-break.
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.h) }

// peekWhen returns the minimum timestamp; ok is false when empty.
func (q *eventQueue) peekWhen() (when Time, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].when, true
}

func (q *eventQueue) push(e *Event) {
	e.queued = true
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

func (q *eventQueue) pop() *Event {
	n := len(q.h)
	if n == 0 {
		return nil
	}
	e := q.h[0]
	last := q.h[n-1]
	q.h[n-1] = nil
	q.h = q.h[:n-1]
	if n > 1 {
		q.h[0] = last
		q.down(0)
	}
	e.queued = false
	e.pos = -1
	return e
}

func (q *eventQueue) remove(e *Event) {
	i := int(e.pos)
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if i < n {
		q.h[i] = last
		if !q.up(i) {
			q.down(i)
		}
	}
	e.queued = false
	e.pos = -1
}

// fix restores heap order after a queued event's key changed.
func (q *eventQueue) fix(e *Event) {
	if i := int(e.pos); !q.up(i) {
		q.down(i)
	}
}

// up sifts the event at index i toward the root, moving parents down
// into the hole instead of swapping; reports whether it moved.
func (q *eventQueue) up(i int) bool {
	e := q.h[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		pe := q.h[parent]
		if !eventLess(e, pe) {
			break
		}
		q.h[i] = pe
		pe.pos = int32(i)
		i = parent
	}
	q.h[i] = e
	e.pos = int32(i)
	return i != start
}

// down sifts the event at index i toward the leaves.
func (q *eventQueue) down(i int) {
	e := q.h[i]
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && eventLess(q.h[r], q.h[l]) {
			min = r
		}
		ce := q.h[min]
		if !eventLess(ce, e) {
			break
		}
		q.h[i] = ce
		ce.pos = int32(i)
		i = min
	}
	q.h[i] = e
	e.pos = int32(i)
}
