package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func TestProcSleep(t *testing.T) {
	t.Parallel()
	s := New()
	var at []Time
	s.Go("sleeper", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(10 * Millisecond)
		at = append(at, p.Now())
		p.Sleep(5 * Millisecond)
		at = append(at, p.Now())
	})
	s.Run()
	want := []Time{0, 10 * Millisecond, 15 * Millisecond}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at = %v, want %v", at, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	t.Parallel()
	s := New()
	var order []string
	s.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * Second)
		order = append(order, "a2")
	})
	s.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * Second)
		order = append(order, "b1")
	})
	s.Run()
	want := []string{"a0", "b0", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcWaitUntil(t *testing.T) {
	t.Parallel()
	s := New()
	var end Time
	s.Go("w", func(p *Proc) {
		p.WaitUntil(5 * Second)
		p.WaitUntil(1 * Second) // already past: no-op
		end = p.Now()
	})
	s.Run()
	if end != 5*Second {
		t.Fatalf("end = %v, want 5s", end)
	}
}

func TestProcKill(t *testing.T) {
	t.Parallel()
	s := New()
	reached := false
	p := s.Go("victim", func(p *Proc) {
		p.Sleep(10 * Second)
		reached = true
	})
	s.Go("killer", func(k *Proc) {
		k.Sleep(1 * Second)
		p.Kill()
	})
	s.Run()
	if reached {
		t.Fatal("killed process continued past Sleep")
	}
	if !p.Done() {
		t.Fatal("killed process not marked done")
	}
}

// TestProcAwait: Await returns once the operation calls done, whether
// it does so synchronously inside start or from a later event, and a
// process killed while it awaits never returns, its late done a no-op.
func TestProcAwait(t *testing.T) {
	t.Parallel()
	s := New()
	var sync, later Time = -1, -1
	s.Go("sync", func(p *Proc) {
		p.Await(func(done func()) { done() })
		sync = p.Now()
	})
	s.Go("later", func(p *Proc) {
		p.Await(func(done func()) { s.Post(KindOther, 3*Second, done) })
		later = p.Now()
	})
	victimReturned := false
	victim := s.Go("victim", func(p *Proc) {
		p.Await(func(done func()) { s.Post(KindOther, 5*Second, done) })
		victimReturned = true
	})
	s.Post(KindOther, Second, victim.Kill)
	s.Run()
	if sync != 0 || later != 3*Second {
		t.Errorf("await returned at %v and %v, want 0 and 3s", sync, later)
	}
	if victimReturned || !victim.Done() {
		t.Errorf("killed process returned %v, done %v; want false, true", victimReturned, victim.Done())
	}
}

func TestResourceMutex(t *testing.T) {
	t.Parallel()
	s := New()
	r := NewResource(s, "mutex", 1)
	var inCS int
	var maxCS int
	for i := 0; i < 5; i++ {
		s.Go("worker", func(p *Proc) {
			r.Acquire(p, 1)
			inCS++
			if inCS > maxCS {
				maxCS = inCS
			}
			p.Sleep(Second)
			inCS--
			r.Release(1)
		})
	}
	s.Run()
	if maxCS != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxCS)
	}
	if s.Now() != 5*Second {
		t.Fatalf("serialized time = %v, want 5s", s.Now())
	}
	if r.TotalAcquired() != 5 {
		t.Fatalf("TotalAcquired = %d, want 5", r.TotalAcquired())
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	t.Parallel()
	s := New()
	r := NewResource(s, "pool", 3)
	for i := 0; i < 6; i++ {
		s.Go("w", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(Second)
			r.Release(1)
		})
	}
	s.Run()
	// 6 jobs, 3 at a time, 1s each => 2s total.
	if s.Now() != 2*Second {
		t.Fatalf("time = %v, want 2s", s.Now())
	}
	if r.PeakInUse() != 3 {
		t.Fatalf("peak = %d, want 3", r.PeakInUse())
	}
}

func TestResourceFIFO(t *testing.T) {
	t.Parallel()
	s := New()
	r := NewResource(s, "r", 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Go("w", func(p *Proc) {
			p.Sleep(Time(i) * Millisecond) // stagger arrival
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(Second)
			r.Release(1)
		})
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	t.Parallel()
	s := New()
	r := NewResource(s, "r", 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on empty failed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) on full succeeded")
	}
	r.Release(1)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) after release failed")
	}
}

func TestSignalBroadcast(t *testing.T) {
	t.Parallel()
	s := New()
	sig := NewSignal(s)
	woken := 0
	for i := 0; i < 3; i++ {
		s.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	s.Go("firer", func(p *Proc) {
		p.Sleep(Second)
		if sig.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", sig.Waiters())
		}
		sig.Fire()
	})
	s.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if sig.Fires() != 1 {
		t.Fatalf("Fires = %d, want 1", sig.Fires())
	}
}

func TestWaitGroup(t *testing.T) {
	t.Parallel()
	s := New()
	wg := NewWaitGroup(s)
	wg.Add(3)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		s.Go("w", func(p *Proc) {
			p.Sleep(Time(i) * Second)
			wg.Done()
		})
	}
	s.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	s.Run()
	if doneAt != 3*Second {
		t.Fatalf("Wait returned at %v, want 3s", doneAt)
	}
}

func TestWaitGroupZeroDoesNotBlock(t *testing.T) {
	t.Parallel()
	s := New()
	wg := NewWaitGroup(s)
	ran := false
	s.Go("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("Wait on zero counter blocked")
	}
}

// TestGroupFirstError: Wait returns once every member is done — spawned
// processes and callback members alike — with the first error reported
// in time, and a killed member counts as done.
func TestGroupFirstError(t *testing.T) {
	t.Parallel()
	s := New()
	g := NewGroup(s)
	errLate, errEarly := errors.New("late"), errors.New("early")
	g.Go("late", func(p *Proc) error {
		p.Sleep(3 * Second)
		return errLate
	})
	g.Go("ok", func(p *Proc) error {
		p.Sleep(Second)
		return nil
	})
	var victim *Proc
	g.Go("victim", func(p *Proc) error {
		victim = p
		p.Sleep(Hour)
		return errors.New("killed member returned")
	})
	g.Add(1)
	s.Post(KindOther, 2*Second, func() { g.Done(errEarly) })
	s.Post(KindOther, Second, func() { victim.Kill() })
	var err error
	var doneAt Time
	s.Go("waiter", func(p *Proc) {
		err = g.Wait(p)
		doneAt = p.Now()
	})
	s.Run()
	if err != errEarly || doneAt != 3*Second {
		t.Fatalf("Wait returned %v at %v, want %v at 3s", err, doneAt, errEarly)
	}
}

// Property: with capacity c and n unit jobs of duration d, makespan is
// ceil(n/c)*d.
func TestPropertyResourceMakespan(t *testing.T) {
	t.Parallel()
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%20) + 1
		c := int(cRaw%5) + 1
		s := New()
		r := NewResource(s, "r", c)
		for i := 0; i < n; i++ {
			s.Go("w", func(p *Proc) {
				r.Acquire(p, 1)
				p.Sleep(Second)
				r.Release(1)
			})
		}
		s.Run()
		rounds := (n + c - 1) / c
		return s.Now() == Time(rounds)*Second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestProcNestedWake: a Release from inside a process hands the units to
// the next waiter and runs it synchronously — a wake nested inside the
// releasing process's own coroutine, two levels deep here — before the
// releaser continues.
func TestProcNestedWake(t *testing.T) {
	t.Parallel()
	s := New()
	r1 := NewResource(s, "r1", 1)
	r2 := NewResource(s, "r2", 1)
	var order []string
	s.Go("a", func(p *Proc) {
		r1.Acquire(p, 1)
		r2.Acquire(p, 1)
		p.Sleep(Second)
		r1.Release(1)
		order = append(order, "a")
	})
	s.Go("b", func(p *Proc) {
		r1.Acquire(p, 1)
		order = append(order, "b")
		r1.Release(1)
		r2.Release(1) // wakes c from inside b, itself inside a's Release
		order = append(order, "b-done")
	})
	s.Go("c", func(p *Proc) {
		r2.Acquire(p, 1)
		order = append(order, "c")
		r2.Release(1)
	})
	s.Run()
	want := []string{"b", "c", "b-done", "a"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if r1.InUse() != 0 || r2.InUse() != 0 || s.Now() != Second {
		t.Fatalf("in use %d/%d at %v", r1.InUse(), r2.InUse(), s.Now())
	}
}

// TestProcKillBeforeStart: a process killed before its first run never
// runs, and is done.
func TestProcKillBeforeStart(t *testing.T) {
	t.Parallel()
	s := New()
	ran := false
	p := s.Go("victim", func(p *Proc) { ran = true })
	p.Kill()
	s.Run()
	if ran || !p.Done() {
		t.Fatalf("ran = %v, done = %v", ran, p.Done())
	}
}

// TestProcPanicSurfacesFromRun: a panic other than the kill unwind
// escapes the process and is recovered by Run's caller, on its own
// goroutine — also when the panicking process was woken synchronously
// from inside another process.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	t.Parallel()
	for _, nested := range []bool{false, true} {
		s := New()
		r := NewResource(s, "r", 1)
		s.Go("holder", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(Second)
			r.Release(1)
		})
		s.Go("bomb", func(p *Proc) {
			if nested {
				r.Acquire(p, 1)
			} else {
				p.Sleep(Second)
			}
			panic("boom")
		})
		got := func() (v any) {
			defer func() { v = recover() }()
			s.Run()
			return nil
		}()
		if got != "boom" {
			t.Fatalf("nested=%v: recovered %v, want boom", nested, got)
		}
	}
}

// TestProcStaleWakeOnReusedRunner: a wake held past its process's end is
// a no-op, even once the process's runner executes another process.
func TestProcStaleWakeOnReusedRunner(t *testing.T) {
	t.Parallel()
	s := New()
	var first *runner
	p1 := s.Go("first", func(p *Proc) { first = p.r })
	var woke Time
	var p2 *Proc
	s.Post(KindOther, Millisecond, func() {
		p2 = s.Go("second", func(p *Proc) {
			p.Sleep(Second)
			woke = p.Now()
		})
	})
	stale := p1.Suspend()
	s.Post(KindOther, 2*Millisecond, func() {
		if p2.r != first {
			t.Errorf("second process did not reuse the first's runner")
		}
		stale()
	})
	s.Run()
	if woke != Second+Millisecond {
		t.Fatalf("second woke at %v, want 1.001s", woke)
	}
}

// TestProcRunnersReleased: Run leaves no goroutines behind once every
// process has finished, however many ran. It stays serial: the goroutine
// count is process-wide.
func TestProcRunnersReleased(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	for i := 0; i < 1000; i++ {
		d := Time(i%7) * Millisecond
		s.Go("short", func(p *Proc) { p.Sleep(d) })
	}
	s.Run()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, %d before", n, base)
	}
}

// TestKillReleasesResource: a process killed while queued on a resource
// leaves the queue; one killed after a Release granted it units gives them
// back. Either way later acquirers get through.
func TestKillReleasesResource(t *testing.T) {
	t.Parallel()
	for _, granted := range []bool{false, true} {
		s := New()
		r := NewResource(s, "r", 1)
		var victim *Proc
		s.Go("holder", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(2 * Second)
			if granted {
				victim.Kill() // the Release below grants before the kill lands
			}
			r.Release(1)
		})
		victim = s.Go("victim", func(p *Proc) {
			r.Acquire(p, 1)
			t.Errorf("granted=%v: killed process acquired", granted)
		})
		if !granted {
			s.Post(KindOther, Second, victim.Kill)
		}
		var late Time = -1
		s.Go("late", func(p *Proc) {
			p.Sleep(3 * Second)
			r.Acquire(p, 1)
			late = p.Now()
			r.Release(1)
		})
		s.Run()
		if late != 3*Second || r.InUse() != 0 || r.Queued() != 0 {
			t.Fatalf("granted=%v: late acquire at %v, in use %d, queued %d",
				granted, late, r.InUse(), r.Queued())
		}
	}
}

// TestKillCancelsSleep: a killed sleeper's timer goes with it, so it no
// longer keeps Run going.
func TestKillCancelsSleep(t *testing.T) {
	t.Parallel()
	s := New()
	p := s.Go("sleeper", func(p *Proc) { p.Sleep(Hour) })
	s.Post(KindOther, Second, p.Kill)
	s.Run()
	if s.Now() != Second || s.Pending() != 0 {
		t.Fatalf("Run ended at %v with %d pending, want 1s and 0", s.Now(), s.Pending())
	}
}

// grantLog records resource grants as "name@time" for the waiter-order
// tests below.
type grantLog struct {
	s   *Sim
	got []string
}

func (l *grantLog) note(name string) { l.got = append(l.got, fmt.Sprintf("%s@%v", name, l.s.Now())) }

// callbackWaiter acquires n units of r with AcquireFunc at time at and
// holds them for hold.
func (l *grantLog) callbackWaiter(r *Resource, name string, at Time, n int, hold Time) {
	l.s.Post(KindOther, at, func() {
		r.AcquireFunc(n, func() {
			l.note(name)
			l.s.Post(KindOther, hold, func() { r.Release(n) })
		})
	})
}

// procWaiter does the same from a process with Acquire.
func (l *grantLog) procWaiter(r *Resource, name string, at Time, n int, hold Time) *Proc {
	return l.s.Go(name, func(p *Proc) {
		p.Sleep(at)
		r.Acquire(p, n)
		l.note(name)
		p.Sleep(hold)
		r.Release(n)
	})
}

// TestAcquireFuncSharesFIFO: callback and process waiters queue in one
// FIFO, a waiter that does not fit holds back every one behind it, and a
// callback on free units runs before AcquireFunc returns.
func TestAcquireFuncSharesFIFO(t *testing.T) {
	t.Parallel()
	s := New()
	r := NewResource(s, "r", 2)
	l := &grantLog{s: s}
	l.procWaiter(r, "holder", 0, 2, Second)
	l.callbackWaiter(r, "a", 1*Millisecond, 1, Second)
	l.procWaiter(r, "b", 2*Millisecond, 2, Second)
	l.callbackWaiter(r, "c", 3*Millisecond, 1, Second)
	l.procWaiter(r, "d", 4*Millisecond, 1, Second)
	queued := -1
	s.Post(KindOther, 500*Millisecond, func() { queued = r.Queued() })
	s.Run()
	want := "[holder@0ns a@1.000s b@2.000s c@3.000s d@3.000s]"
	if got := fmt.Sprint(l.got); got != want {
		t.Errorf("grants %s, want %s", got, want)
	}
	if queued != 4 {
		t.Errorf("Queued() = %d with four waiters", queued)
	}
	if r.TotalAcquired() != 5 || r.PeakInUse() != 2 || r.InUse() != 0 {
		t.Errorf("acquired %d, peak %d, in use %d", r.TotalAcquired(), r.PeakInUse(), r.InUse())
	}
	ran := false
	r.AcquireFunc(1, func() { ran = true })
	if !ran || r.InUse() != 1 {
		t.Errorf("AcquireFunc on a free resource: ran %v, in use %d", ran, r.InUse())
	}
}

// TestKillAbandonPastHead: a process killed in the queue behind waiters
// that were already granted (so the queue's head has moved) leaves it
// without disturbing the order of the rest, and the drained queue
// rewinds to the start of its array.
func TestKillAbandonPastHead(t *testing.T) {
	t.Parallel()
	s := New()
	r := NewResource(s, "r", 1)
	l := &grantLog{s: s}
	l.procWaiter(r, "holder", 0, 1, Second)
	l.callbackWaiter(r, "w1", 1*Millisecond, 1, Second)
	victim := l.procWaiter(r, "victim", 2*Millisecond, 1, Second)
	l.procWaiter(r, "w3", 3*Millisecond, 1, Second)
	l.callbackWaiter(r, "w4", 4*Millisecond, 1, Second)
	var head, queued int
	s.Post(KindOther, 1500*Millisecond, func() {
		head = r.head
		victim.Kill()
	})
	s.Post(KindOther, 1600*Millisecond, func() { queued = r.Queued() })
	s.Run()
	want := "[holder@0ns w1@1.000s w3@2.000s w4@3.000s]"
	if got := fmt.Sprint(l.got); got != want {
		t.Errorf("grants %s, want %s", got, want)
	}
	if head == 0 || queued != 2 {
		t.Errorf("at the kill head = %d (want > 0); after it Queued() = %d, want 2", head, queued)
	}
	if r.InUse() != 0 || r.Queued() != 0 || r.head != 0 || len(r.waiters) != 0 {
		t.Errorf("drained: in use %d, queued %d, head %d, len %d", r.InUse(), r.Queued(), r.head, len(r.waiters))
	}
}

// TestResourceBacklogKeepsItsArray: a wait queue that never drains —
// each Release grants the head while a new waiter joins the tail —
// keeps its order and reuses its array instead of growing it.
func TestResourceBacklogKeepsItsArray(t *testing.T) {
	t.Parallel()
	s := New()
	r := NewResource(s, "r", 1)
	r.TryAcquire(1)
	var granted []int
	next := 0
	join := func() {
		id := next
		next++
		r.AcquireFunc(1, func() { granted = append(granted, id) })
	}
	for i := 0; i < 4; i++ {
		join()
	}
	c := cap(r.waiters)
	for i := 0; i < 1000; i++ {
		r.Release(1)
		join()
	}
	if r.Queued() != 4 || cap(r.waiters) != c {
		t.Errorf("backlog %d in an array of %d, want 4 in %d", r.Queued(), cap(r.waiters), c)
	}
	for i, id := range granted {
		if id != i {
			t.Fatalf("grant %d went to waiter %d", i, id)
		}
	}
}
