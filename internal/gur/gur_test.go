package gur

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gfs/internal/sim"
)

func sched(t *testing.T) *Scheduler {
	t.Helper()
	s := New(sim.New())
	for _, site := range []struct {
		name  string
		nodes int
	}{{"sdsc", 32}, {"ncsa", 16}, {"anl", 8}} {
		if err := s.AddSite(site.name, site.nodes); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestReserveAndConflict(t *testing.T) {
	t.Parallel()
	s := sched(t)
	r1, err := s.Reserve("anl", 0, sim.Hour, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 6 + 4 > 8: overlapping request must fail.
	if _, err := s.Reserve("anl", 30*sim.Minute, 2*sim.Hour, 4); err == nil {
		t.Fatal("oversubscription accepted")
	}
	// Non-overlapping fits.
	if _, err := s.Reserve("anl", sim.Hour, 2*sim.Hour, 8); err != nil {
		t.Fatal(err)
	}
	// Cancel frees the window.
	r1.Cancel()
	if _, err := s.Reserve("anl", 0, sim.Hour, 8); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	if r1.Active() {
		t.Error("canceled reservation active")
	}
}

func TestAvailableEdgeCases(t *testing.T) {
	t.Parallel()
	s := sched(t)
	if s.Available("nowhere", 0, sim.Hour, 1) {
		t.Error("unknown site available")
	}
	if s.Available("sdsc", sim.Hour, sim.Hour, 1) {
		t.Error("empty window available")
	}
	if s.Available("sdsc", 0, sim.Hour, 0) {
		t.Error("zero nodes available")
	}
	if s.Available("sdsc", 0, sim.Hour, 33) {
		t.Error("more than total available")
	}
	// Adjacent reservations don't conflict.
	if _, err := s.Reserve("ncsa", 0, sim.Hour, 16); err != nil {
		t.Fatal(err)
	}
	if !s.Available("ncsa", sim.Hour, 2*sim.Hour, 16) {
		t.Error("back-to-back windows conflict")
	}
}

func TestCoAllocateFindsFirstCommonWindow(t *testing.T) {
	t.Parallel()
	s := sched(t)
	// Block SDSC for the first hour and ANL for the first two hours.
	if _, err := s.Reserve("sdsc", 0, sim.Hour, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reserve("anl", 0, 2*sim.Hour, 8); err != nil {
		t.Fatal(err)
	}
	start, rs, err := s.CoAllocate([]Request{
		{Site: "sdsc", Nodes: 16, Duration: sim.Hour},
		{Site: "ncsa", Nodes: 8, Duration: sim.Hour},
		{Site: "anl", Nodes: 4, Duration: 30 * sim.Minute},
	}, 0, 24*sim.Hour, 15*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if start != 2*sim.Hour {
		t.Errorf("start = %v, want 2h (first instant all three fit)", start)
	}
	if len(rs) != 3 {
		t.Fatalf("reservations = %d", len(rs))
	}
	for _, r := range rs {
		if r.Start != start {
			t.Errorf("%s starts at %v", r.Site, r.Start)
		}
	}
}

func TestCoAllocateHorizonExhausted(t *testing.T) {
	t.Parallel()
	s := sched(t)
	if _, err := s.Reserve("anl", 0, 48*sim.Hour, 8); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.CoAllocate([]Request{
		{Site: "anl", Nodes: 1, Duration: sim.Hour},
	}, 0, 10*sim.Hour, sim.Hour)
	if err == nil {
		t.Fatal("co-allocation beyond horizon succeeded")
	}
}

func TestCoAllocateValidation(t *testing.T) {
	t.Parallel()
	s := sched(t)
	if _, _, err := s.CoAllocate(nil, 0, sim.Hour, sim.Minute); err == nil {
		t.Error("empty request list accepted")
	}
	if _, _, err := s.CoAllocate([]Request{{Site: "mars", Nodes: 1, Duration: sim.Hour}}, 0, sim.Hour, sim.Minute); err == nil {
		t.Error("unknown site accepted")
	}
	if _, _, err := s.CoAllocate([]Request{{Site: "anl", Nodes: 1}}, 0, sim.Hour, sim.Minute); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestSC04Scenario(t *testing.T) {
	t.Parallel()
	// The Fig. 7 arrangement: Enzo on DataStar while NCSA visualizes —
	// booked for the same window, then the processes wait for the start.
	sm := sim.New()
	s := New(sm)
	if err := s.AddSite("datastar", 176); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSite("ncsa-viz", 96); err != nil {
		t.Fatal(err)
	}
	start, rs, err := s.CoAllocate([]Request{
		{Site: "datastar", Nodes: 128, Duration: 2 * sim.Hour},
		{Site: "ncsa-viz", Nodes: 64, Duration: 2 * sim.Hour},
	}, sim.Hour, 24*sim.Hour, 30*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var ranAt []sim.Time
	for _, r := range rs {
		r := r
		sm.Go(r.Site, func(p *sim.Proc) {
			r.WaitUntil(p)
			ranAt = append(ranAt, p.Now())
		})
	}
	sm.Run()
	if len(ranAt) != 2 || ranAt[0] != start || ranAt[1] != start {
		t.Errorf("jobs started at %v, want both at %v", ranAt, start)
	}
}

// Property: random reservation traffic never oversubscribes any site at
// any boundary instant.
func TestPropertyNeverOversubscribed(t *testing.T) {
	t.Parallel()
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(sim.New())
		total := 10
		if err := s.AddSite("x", total); err != nil {
			return false
		}
		var rs []*Reservation
		for i := 0; i < int(nRaw%40)+5; i++ {
			from := sim.Time(rng.Intn(100)) * sim.Minute
			to := from + sim.Time(rng.Intn(120)+1)*sim.Minute
			nodes := rng.Intn(total) + 1
			if r, err := s.Reserve("x", from, to, nodes); err == nil {
				rs = append(rs, r)
			}
			if len(rs) > 0 && rng.Intn(4) == 0 {
				rs[rng.Intn(len(rs))].Cancel()
			}
		}
		// Verify peak at every reservation boundary.
		pool := s.sites["x"]
		for _, r := range pool.held {
			for _, t0 := range []sim.Time{r.Start, r.End - 1} {
				if pool.peakUsage(t0, t0+1) > total {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
