package netsim

import (
	"errors"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

func TestBackoffDoublesAndCaps(t *testing.T) {
	t.Parallel()
	pol := RetryPolicy{MaxAttempts: 10, BaseBackoff: 10 * sim.Millisecond, MaxBackoff: 50 * sim.Millisecond}
	want := []sim.Time{10, 20, 40, 50, 50}
	for i, w := range want {
		if got := pol.Backoff(i + 1); got != w*sim.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*sim.Millisecond)
		}
	}
	if zero := (RetryPolicy{}); zero.Attempts() != 1 {
		t.Errorf("zero policy attempts = %d, want 1", zero.Attempts())
	}
}

func TestDeadlineExpiresAndDiscardsLateResponse(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(40 * sim.Millisecond)
	server.Handle("slow", func(p *sim.Proc, req *Request) Response {
		p.Sleep(sim.Second)
		return Response{Size: 1}
	})
	calls := 0
	var firstErr error
	var at sim.Time
	s.Post(sim.KindOther, 0, func() {
		client.GoDeadline(trace.Ctx{}, server, "slow", 64, nil, 100*sim.Millisecond, func(r Response) {
			calls++
			firstErr = r.Err
			at = s.Now()
		})
	})
	s.Run()
	if calls != 1 {
		t.Fatalf("onDone fired %d times, want exactly once", calls)
	}
	if !errors.Is(firstErr, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", firstErr)
	}
	if at != 100*sim.Millisecond {
		t.Errorf("deadline fired at %v, want 100ms", at)
	}
}

func TestLinkDownStallsAndResumes(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	fwd, _ := nw.DuplexLink("ab", a, b, units.Gbps, sim.Millisecond)
	ea := nw.NewEndpoint(a, 1)
	eb := nw.NewEndpoint(b, 1)
	eb.Handle("echo", func(p *sim.Proc, req *Request) Response {
		return Response{Size: 64}
	})
	// Fail the forward link before the request, restore it at t=2s: the
	// in-flight message must stall, not be lost, and complete after repair.
	var doneAt sim.Time
	s.Post(sim.KindOther, 0, func() { fwd.SetDown(true) })
	s.Post(sim.KindOther, sim.Millisecond, func() {
		ea.GoCtx(trace.Ctx{}, eb, "echo", units.MiB, nil, func(r Response) {
			if r.Err != nil {
				t.Errorf("call over flapped link failed: %v", r.Err)
			}
			doneAt = s.Now()
		})
	})
	s.Post(sim.KindOther, 2*sim.Second, func() { fwd.SetDown(false) })
	s.Run()
	if doneAt < 2*sim.Second {
		t.Errorf("call completed at %v, before the link was restored", doneAt)
	}
	if doneAt > 2*sim.Second+100*sim.Millisecond {
		t.Errorf("call completed at %v, long after the link was restored", doneAt)
	}
	if fwd.Down() {
		t.Error("link still reports down after restore")
	}
}
