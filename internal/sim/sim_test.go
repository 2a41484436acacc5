package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	t.Parallel()
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	t.Parallel()
	s := New()
	var got []int
	s.Post(KindOther, 3*Second, func() { got = append(got, 3) })
	s.Post(KindOther, 1*Second, func() { got = append(got, 1) })
	s.Post(KindOther, 2*Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*Second {
		t.Fatalf("final time %v, want 3s", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	t.Parallel()
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Post(KindOther, Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	t.Parallel()
	s := New()
	fired := false
	e := &Event{}
	s.Arm(e, KindOther, Second, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	t.Parallel()
	s := New()
	s.Post(KindOther, Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Post(KindOther, -Second, func() {})
}

func TestRunUntil(t *testing.T) {
	t.Parallel()
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Post(KindOther, Time(i)*Second, func() { count++ })
	}
	s.RunUntil(5 * Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
	s.RunUntil(20 * Second)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if s.Now() != 20*Second {
		t.Fatalf("Now = %v, want 20s (advances past last event)", s.Now())
	}
}

func TestStop(t *testing.T) {
	t.Parallel()
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Post(KindOther, Time(i)*Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	t.Parallel()
	s := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.Post(KindOther, Millisecond, rec)
		}
	}
	s.Post(KindOther, 0, rec)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 99*Millisecond {
		t.Fatalf("Now = %v, want 99ms", s.Now())
	}
}

// Property: events fire in nondecreasing time order regardless of insertion
// order.
func TestPropertyEventOrdering(t *testing.T) {
	t.Parallel()
	f := func(delaysRaw []uint16) bool {
		s := New()
		var fired []Time
		for _, d := range delaysRaw {
			s.Post(KindOther, Time(d)*Microsecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random mix of schedules and cancels fires exactly the
// non-canceled events.
func TestPropertyCancelExactness(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		fired := map[int]bool{}
		events := make([]Event, int(n)+1)
		for i := range events {
			i := i
			s.Arm(&events[i], KindOther, Time(rng.Intn(1000))*Microsecond, func() { fired[i] = true })
		}
		canceled := map[int]bool{}
		for i := range events {
			if rng.Intn(2) == 0 {
				events[i].Cancel()
				canceled[i] = true
			}
		}
		s.Run()
		for i := range events {
			if fired[i] == canceled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	t.Parallel()
	cases := []struct {
		t    Time
		want string
	}{
		{1500 * Millisecond, "1.500s"},
		{2 * Millisecond, "2.000ms"},
		{3 * Microsecond, "3.000us"},
		{5, "5ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	t.Parallel()
	for _, sec := range []float64{0, 0.001, 1, 3600.5} {
		got := FromSeconds(sec).Seconds()
		if diff := got - sec; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("FromSeconds(%v).Seconds() = %v", sec, got)
		}
	}
}
