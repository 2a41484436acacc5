package sim

// eventQueue is the pending-event queue behind a Sim, kept in two tiers
// under the (when, seq) order. The order is total — seq is unique — so
// dispatch is a pure function of what was scheduled, and a run's event
// sequence, and therefore every trace byte, is reproducible.
//
//   - The near tier h is a binary min-heap holding every event with
//     when <= limit.
//   - The far tier far is an unordered slice holding every event with
//     when > limit. Each event records its slot, so push, move and
//     remove there are O(1): a flow-completion estimate that is re-armed
//     again and again before it can fire never pays for heap order.
//
// Every far event is later than every near one, so the heap's top is the
// global minimum. When the heap runs dry, refill picks a far instant near
// the k-th smallest, makes it the new limit and moves every far event at
// or before it into the heap. limit only grows, and seq is never
// touched, so dispatch order is exactly that of one heap over all events.
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
// The queue owns each Event's pos, far and queued fields; nothing else
// writes them.
type eventQueue struct {
	h     []*Event // near tier: binary heap, every when <= limit
	far   []*Event // far tier: unordered, every when > limit
	limit Time

	whens []Time // refill scratch: the far tier's instants
}

// eventLess is the dispatch order: time first, scheduling sequence as the
// deterministic FIFO tie-break.
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.h) + len(q.far) }

// peekWhen returns the minimum timestamp; ok is false when empty.
func (q *eventQueue) peekWhen() (when Time, ok bool) {
	if len(q.h) == 0 && !q.refill() {
		return 0, false
	}
	return q.h[0].when, true
}

func (q *eventQueue) push(e *Event) {
	e.queued = true
	if e.when > q.limit {
		q.pushFar(e)
		return
	}
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

func (q *eventQueue) pop() *Event {
	if len(q.h) == 0 && !q.refill() {
		return nil
	}
	n := len(q.h)
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
	if e.far {
		q.removeFar(e)
	} else {
		q.removeNear(e)
	}
	e.queued = false
	e.pos = -1
}

// fix restores the tier invariant and heap order after a queued event's
// key changed. An event that stays in the far tier does not move at all.
func (q *eventQueue) fix(e *Event) {
	switch {
	case e.far && e.when > q.limit:
	case e.far:
		q.removeFar(e)
		q.h = append(q.h, e)
		q.up(len(q.h) - 1)
	case e.when > q.limit:
		q.removeNear(e)
		q.pushFar(e)
	default:
		if i := int(e.pos); !q.up(i) {
			q.down(i)
		}
	}
}

func (q *eventQueue) pushFar(e *Event) {
	e.far = true
	e.pos = int32(len(q.far))
	q.far = append(q.far, e)
}

// removeFar swap-removes e from the far tier.
func (q *eventQueue) removeFar(e *Event) {
	i := int(e.pos)
	n := len(q.far) - 1
	if i < n {
		last := q.far[n]
		q.far[i] = last
		last.pos = int32(i)
	}
	q.far[n] = nil
	q.far = q.far[:n]
	e.far = false
}

// removeNear takes e out of the heap, whatever its current key.
func (q *eventQueue) removeNear(e *Event) {
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
}

// refillMin is the number of far events a refill aims to move into the
// heap, and the most far instants it samples to place the limit; a
// larger far tier moves about an eighth of itself.
const refillMin = 64

// refill moves the earliest far events into the empty heap and reports
// whether there were any. It aims to move the k earliest, k = max(64,
// n/8) of the n far events, and places the limit at that rank's place
// in a strided sample of min(n, 64) far instants: on a tier of 64 or
// fewer the sample is the whole tier and the limit is exactly the k-th
// smallest instant. The limit is a real far instant, so at least one
// event moves. A far tier whose slice order defeats the stride can make
// the sample place it too early; if fewer than k/4 events moved, the
// limit is placed again by selection over every remaining far instant,
// so each refill moves at least k/4 events for its O(n) scan and the
// cost stays O(1) amortized per moved event. Where the limit falls
// never changes dispatch order, only how much work the heap holds.
func (q *eventQueue) refill() bool {
	n := len(q.far)
	if n == 0 {
		return false
	}
	k := min(max(refillMin, n/8), n)
	m := min(n, refillMin)
	whens := q.whens[:0]
	for i := 0; i < m; i++ {
		whens = append(whens, q.far[i*n/m].when)
	}
	q.limit = selectKth(whens, (m*k-1)/n)
	moved := q.moveNear()
	if moved < k/4 {
		whens = whens[:0]
		for _, e := range q.far {
			whens = append(whens, e.when)
		}
		q.limit = selectKth(whens, k-moved-1)
		q.moveNear()
	}
	q.whens = whens[:0]
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return true
}

// moveNear swaps every far event at or before the limit into the heap,
// unordered, and returns how many moved.
func (q *eventQueue) moveNear() int {
	moved := 0
	for i := 0; i < len(q.far); {
		e := q.far[i]
		if e.when > q.limit {
			i++
			continue
		}
		q.removeFar(e)
		e.pos = int32(len(q.h))
		q.h = append(q.h, e)
		moved++
	}
	return moved
}

// selectKth returns the k-th smallest value of a (0-based), reordering
// a. Hoare partitioning stops on keys equal to the pivot from both
// sides, which splits the many equal instants a simulation produces
// evenly.
func selectKth(a []Time, k int) Time {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median of three as the pivot.
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
		}
		p := max(x, y)
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] <= p, a[j+1:i] == p, a[i:hi+1] >= p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
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
