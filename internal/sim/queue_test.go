package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one scheduling as the reference queue sees it.
type refEvent struct {
	when     Time
	seq      uint64
	tag      string
	daemon   bool
	canceled bool
}

// dispatchTrace runs a seeded random workload — timers, nested schedules,
// daemons, same-instant ties, cancellations before and during the run,
// pooled posts, re-armed events, queued events moved in place by Rearm
// before and during the run — and records the dispatch order (got)
// beside the order a reference derives from every scheduling it saw
// (want): the non-canceled events sorted by (when, seq), cut after the
// last non-daemon event's instant, as Run leaves later daemons unfired.
func dispatchTrace(seed int64, n int) (got, want []string) {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	var refs []*refEvent
	note := func(when Time, tag string, daemon bool) *refEvent {
		r := &refEvent{when: when, seq: s.seq, tag: tag, daemon: daemon}
		refs = append(refs, r)
		return r
	}
	record := func(tag string) {
		got = append(got, fmt.Sprintf("%d:%s", int64(s.Now()), tag))
	}
	type handle struct {
		e   *Event
		ref *refEvent
		tag string
	}
	var cancelable, armed []*handle
	cancel := func(h *handle) {
		if h.e.Queued() {
			h.e.Cancel()
			h.ref.canceled = true
		}
	}
	// move re-arms a still-queued armed event in place; to the reference
	// that is a cancel plus a fresh scheduling.
	move := func(h *handle) {
		if !h.e.Queued() {
			return
		}
		h.ref.canceled = true
		tag := h.tag + "-moved"
		s.Rearm(h.e, KindOther, Time(rng.Intn(5))*Millisecond, func() { record(tag) })
		h.ref = note(h.e.When(), tag, false)
	}
	id := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		id++
		tag := fmt.Sprintf("e%d", id)
		d := Time(rng.Intn(5)) * Millisecond // frequent same-instant ties
		switch rng.Intn(10) {
		case 0:
			s.PostDaemon(d, func() { record(tag + "-daemon") })
			note(s.Now()+d, tag+"-daemon", true)
		case 1:
			s.Post(KindOther, d, func() {
				record(tag + "-post")
				if depth < 3 && rng.Intn(2) == 0 {
					spawn(depth + 1)
				}
			})
			note(s.Now()+d, tag+"-post", false)
		case 2:
			e := &Event{}
			s.Arm(e, KindOther, d, func() { record(tag + "-armed") })
			armed = append(armed, &handle{e, note(e.When(), tag+"-armed", false), tag})
		default:
			e := &Event{}
			s.Arm(e, KindOther, d, func() {
				record(tag)
				if depth < 3 && rng.Intn(2) == 0 {
					spawn(depth + 1)
				}
				if rng.Intn(8) == 0 && len(cancelable) > 0 {
					cancel(cancelable[rng.Intn(len(cancelable))])
				}
				if rng.Intn(8) == 0 && len(armed) > 0 {
					move(armed[rng.Intn(len(armed))])
				}
			})
			cancelable = append(cancelable, &handle{e, note(e.When(), tag, false), tag})
		}
	}
	for i := 0; i < n; i++ {
		spawn(0)
	}
	for _, h := range cancelable {
		if rng.Intn(4) == 0 {
			cancel(h)
		}
	}
	for _, h := range armed {
		if rng.Intn(4) != 0 {
			continue
		}
		cancel(h)
		if rng.Intn(2) == 0 {
			tag := h.tag + "-rearmed"
			s.Arm(h.e, KindOther, Time(rng.Intn(5))*Millisecond, func() { record(tag) })
			h.ref = note(h.e.When(), tag, false)
		}
	}
	for _, h := range armed {
		if rng.Intn(4) == 0 {
			move(h)
		}
	}
	s.Run()

	var live []*refEvent
	last := Time(-1)
	for _, r := range refs {
		if r.canceled {
			continue
		}
		live = append(live, r)
		if !r.daemon && r.when > last {
			last = r.when
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].when != live[j].when {
			return live[i].when < live[j].when
		}
		return live[i].seq < live[j].seq
	})
	for _, r := range live {
		if r.when <= last {
			want = append(want, fmt.Sprintf("%d:%s", int64(r.when), r.tag))
		}
	}
	return got, want
}

// TestSchedulerDifferential: a seeded workload must dispatch exactly the
// non-canceled events, in the (when, seq) order of a sort-based
// reference — the determinism contract every byte-identity CI gate rests
// on.
func TestSchedulerDifferential(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 20; seed++ {
		got, want := dispatchTrace(seed, 200)
		if len(got) == 0 {
			t.Fatalf("seed %d: empty dispatch trace", seed)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: heap fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch diverges at %d: heap %q, reference %q",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestArmReuse re-arms one embedded event many times, with interleaved
// cancels, and checks each firing lands at the right instant.
func TestArmReuse(t *testing.T) {
	t.Parallel()
	s := New()
	var e Event
	fired := 0
	var rearm func()
	rearm = func() {
		fired++
		if fired < 100 {
			s.Arm(&e, KindOther, Millisecond, rearm)
		}
	}
	s.Arm(&e, KindOther, Millisecond, rearm)
	s.Run()
	if fired != 100 {
		t.Fatalf("fired %d, want 100", fired)
	}
	if s.Now() != 100*Millisecond {
		t.Fatalf("Now = %v, want 100ms", s.Now())
	}
	// Cancel then re-arm.
	s.Arm(&e, KindOther, Millisecond, func() { t.Fatal("canceled firing fired") })
	e.Cancel()
	if e.Queued() {
		t.Fatal("Queued() after Cancel")
	}
	ok := false
	s.Arm(&e, KindOther, Millisecond, func() { ok = true })
	s.Run()
	if !ok {
		t.Fatal("re-armed event did not fire")
	}
}

// TestRearmMovesQueuedEvent: Rearm moves a queued event earlier, later or
// to the same instant, and it fires exactly once at its new instant. At a
// shared instant it fires after events scheduled before the re-arm, just
// as a Cancel then Arm would. On an idle event Rearm is Arm.
func TestRearmMovesQueuedEvent(t *testing.T) {
	t.Parallel()
	s := New()
	var got []string
	rec := func(tag string) func() {
		return func() { got = append(got, fmt.Sprintf("%d:%s", s.Now()/Millisecond, tag)) }
	}
	var earlier, later, same, idle Event
	s.Arm(&earlier, KindOther, 5*Millisecond, rec("stale-earlier"))
	s.Arm(&later, KindOther, 3*Millisecond, rec("stale-later"))
	s.Arm(&same, KindOther, 4*Millisecond, rec("stale-same"))
	s.Post(KindOther, 4*Millisecond, rec("tie"))
	s.Rearm(&earlier, KindOther, 2*Millisecond, rec("earlier"))
	s.Rearm(&later, KindOther, 8*Millisecond, rec("later"))
	s.Rearm(&same, KindOther, 4*Millisecond, rec("same"))
	s.Rearm(&idle, KindOther, 6*Millisecond, rec("idle"))
	if s.Pending() != 5 {
		t.Fatalf("%d events pending, want 5", s.Pending())
	}
	s.Run()
	want := []string{"2:earlier", "4:tie", "4:same", "6:idle", "8:later"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestArmWhileQueuedPanics: double-arming without a Cancel is a bug.
func TestArmWhileQueuedPanics(t *testing.T) {
	s := New()
	var e Event
	s.Arm(&e, KindOther, Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("arming a queued event did not panic")
		}
	}()
	s.Arm(&e, KindOther, Millisecond, func() {})
}

// TestPostPoolRecycles: steady-state Post traffic must not grow the free
// list beyond the peak number of in-flight pooled events.
func TestPostPoolRecycles(t *testing.T) {
	t.Parallel()
	s := New()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			s.Post(KindOther, Microsecond, tick)
		}
	}
	s.Post(KindOther, 0, tick)
	s.Run()
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	if len(s.free) > 2 {
		t.Fatalf("free list grew to %d for a 1-in-flight workload", len(s.free))
	}
}

// BenchmarkEventQueue steps a self-renewing population of 4096 pooled
// timers.
func BenchmarkEventQueue(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	var tick func()
	tick = func() {
		s.Post(KindOther, Time(rng.Intn(1000)+1)*Microsecond, tick)
	}
	for i := 0; i < 4096; i++ {
		s.Post(KindOther, Time(rng.Intn(1000)+1)*Microsecond, tick)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// scaleStats counts what a scaleTrace run put the two tiers through.
type scaleStats struct {
	peak       int // most events pending at once, by the reference's count
	toNear     int // queued events re-armed from the far tier into the heap
	toFar      int // queued events re-armed from the heap into the far tier
	farCancels int // events canceled while in the far tier
	limits     int // RunUntil stops at which the tier limit had moved
}

// scaleTrace runs the queue pattern a shared-bottleneck rate solve makes
// — about 2,000 pending completion events, and on every dispatch a batch
// of them re-armed to new instants, most later and some earlier, so
// events cross the tier limit both ways — with far-tier cancels, pooled
// posts, a self-rescheduling daemon and RunUntil stops between refills.
// It records the dispatch order (got) beside the sort-by-(when, seq)
// reference (want), checking Pending() against the reference's count at
// every stop and the probe's peak against the reference's at the end.
func scaleTrace(t *testing.T, seed int64) (got, want []string, st scaleStats) {
	const conns, rerates, budget = 2000, 8, 12000
	rng := rand.New(rand.NewSource(seed))
	s := New()
	probe := NewEngineProbe()
	s.SetEngineProbe(probe)
	var refs []*refEvent
	pending := 0
	note := func(when Time, tag string, daemon bool) *refEvent {
		r := &refEvent{when: when, seq: s.seq, tag: tag, daemon: daemon}
		refs = append(refs, r)
		pending++
		st.peak = max(st.peak, pending)
		return r
	}
	record := func(tag string) {
		got = append(got, fmt.Sprintf("%d:%s", int64(s.Now()), tag))
		pending--
	}
	delay := func() Time {
		if rng.Intn(4) == 0 {
			return Time(rng.Intn(2000)) // near: likely under the limit
		}
		return Time(1000 + rng.Intn(2_000_000))
	}

	type conn struct {
		e   Event
		ref *refEvent
		id  int
		gen int
	}
	cs := make([]*conn, conns)
	fired := 0
	var rearm func(c *conn, d Time)
	var onConn func(c *conn)
	cancel := func(c *conn) {
		if !c.e.Queued() {
			return
		}
		if c.e.far {
			st.farCancels++
		}
		c.e.Cancel()
		c.ref.canceled = true
		pending--
	}
	rearm = func(c *conn, d Time) {
		queued, wasFar := c.e.Queued(), c.e.far
		if queued {
			c.ref.canceled = true
			pending--
		}
		c.gen++
		tag := fmt.Sprintf("c%d.%d", c.id, c.gen)
		s.Rearm(&c.e, KindOther, d, func() { record(tag); onConn(c) })
		if queued && wasFar && !c.e.far {
			st.toNear++
		}
		if queued && !wasFar && c.e.far {
			st.toFar++
		}
		c.ref = note(c.e.When(), tag, false)
	}
	posts := 0
	onConn = func(c *conn) {
		fired++
		if fired > budget {
			return
		}
		if rng.Intn(4) != 0 {
			rearm(c, delay())
		}
		for i := 0; i < rerates; i++ {
			if o := cs[rng.Intn(conns)]; o.e.Queued() {
				rearm(o, delay())
			}
		}
		if rng.Intn(16) == 0 {
			cancel(cs[rng.Intn(conns)])
		}
		if rng.Intn(8) == 0 {
			posts++
			tag := fmt.Sprintf("p%d", posts)
			d := delay()
			s.Post(KindOther, d, func() { record(tag) })
			note(s.Now()+d, tag, false)
		}
	}
	for i := range cs {
		cs[i] = &conn{id: i}
		rearm(cs[i], delay())
	}
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		tag := fmt.Sprintf("d%d", ticks)
		s.PostDaemon(37*Microsecond, func() { record(tag); tick() })
		note(s.Now()+37*Microsecond, tag, true)
	}
	tick()

	var stop Time
	limit := s.q.limit
	for fired <= budget {
		stop += 150 * Microsecond
		s.RunUntil(stop)
		if s.Pending() != pending {
			t.Fatalf("seed %d: Pending() = %d at %v, reference %d", seed, s.Pending(), stop, pending)
		}
		if s.q.limit != limit {
			limit = s.q.limit
			st.limits++
		}
		for i := 0; i < 3; i++ {
			cancel(cs[rng.Intn(conns)])
		}
		for i := 0; i < 5; i++ {
			rearm(cs[rng.Intn(conns)], delay())
		}
	}
	s.Run()
	if p := probe.Snapshot().PeakPending; p != st.peak {
		t.Fatalf("seed %d: probe peak pending %d, reference %d", seed, p, st.peak)
	}

	var live []*refEvent
	last := stop
	for _, r := range refs {
		if r.canceled {
			continue
		}
		live = append(live, r)
		if !r.daemon && r.when > last {
			last = r.when
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].when != live[j].when {
			return live[i].when < live[j].when
		}
		return live[i].seq < live[j].seq
	})
	for _, r := range live {
		if r.when <= last {
			want = append(want, fmt.Sprintf("%d:%s", int64(r.when), r.tag))
		}
	}
	return got, want, st
}

// TestSchedulerDifferentialScale: the differential check at the scale
// where the far tier works — thousands pending, refills between every
// few stops, re-arms crossing the limit both ways, far-tier cancels.
func TestSchedulerDifferentialScale(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 3; seed++ {
		got, want, st := scaleTrace(t, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: queue fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch diverges at %d: queue %q, reference %q",
					seed, i, got[i], want[i])
			}
		}
		if st.peak < 2000 || st.toNear == 0 || st.toFar == 0 || st.farCancels == 0 || st.limits < 10 {
			t.Fatalf("seed %d: workload missed the far tier: %+v", seed, st)
		}
	}

	// A far tier laid out so that the strided sample holds only its
	// earliest instants: the sampled limit moves 8 events, and the refill
	// must fall back to selection over the whole tier to move k = n/8.
	const n, stride = 2048, 2048 / refillMin
	s := New()
	var got, want []Time
	for i := 0; i < n; i++ {
		when := Time(1000 + i)
		if i%stride == 0 {
			when = Time(1 + i/stride)
		}
		want = append(want, when)
		s.Post(KindOther, when, func() { got = append(got, s.Now()) })
	}
	s.Step()
	if moved := len(s.q.h) + 1; moved < n/8 {
		t.Fatalf("refill of a stride-defeating far tier moved %d events, want at least %d", moved, n/8)
	}
	s.Run()
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != n {
		t.Fatalf("stride-defeating far tier: fired %d events, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stride-defeating far tier: event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
}

// BenchmarkRearm is the queue pattern of a shared-bottleneck rate solve:
// 2,000 pending completion events, and for every dispatched one about
// 500 others re-armed to later instants.
func BenchmarkRearm(b *testing.B) {
	const conns, rerates = 2000, 500
	s := New()
	rng := rand.New(rand.NewSource(1))
	events := make([]Event, conns)
	fns := make([]func(), conns)
	// Precomputed draws keep the random source out of the timed loop.
	picks := make([]int, 1<<14)
	for i := range picks {
		picks[i] = rng.Intn(conns)
	}
	slips := make([]Time, 1<<14)
	for i := range slips {
		slips[i] = Time(1 + rng.Intn(1000))
	}
	next := 0
	for i := range events {
		e := &events[i]
		fns[i] = func() {
			for j := 0; j < rerates; j++ {
				next = (next + 1) & (len(picks) - 1)
				o := &events[picks[next]]
				if o.Queued() {
					s.Rearm(o, KindOther, o.When()-s.Now()+slips[next], fns[picks[next]])
				}
			}
			s.Arm(e, KindOther, 1000*Microsecond+slips[next], fns[i])
		}
		s.Arm(e, KindOther, Time(rng.Intn(1000))*Microsecond, fns[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// TestSelectKth: the refill's selection returns the k-th smallest of
// any multiset, ties and sorted runs included.
func TestSelectKth(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		spread := 1 + rng.Intn(2*n)
		a := make([]Time, n)
		for i := range a {
			a[i] = Time(rng.Intn(spread))
		}
		if trial%3 == 0 {
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		}
		sorted := append([]Time(nil), a...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		k := rng.Intn(n)
		if got := selectKth(a, k); got != sorted[k] {
			t.Fatalf("trial %d: selectKth(k=%d of %d) = %d, want %d", trial, k, n, got, sorted[k])
		}
	}
}
