package netsim

import (
	"errors"
	"fmt"
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
	s.Schedule(0, func() {
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

func TestGoRetrySucceedsAfterTransientFailures(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(sim.Millisecond)
	errFlaky := errors.New("flaky")
	fails := 3
	served := 0
	server.Handle("flaky", func(p *sim.Proc, req *Request) Response {
		served++
		if served <= fails {
			return Response{Err: fmt.Errorf("try again: %w", errFlaky)}
		}
		return Response{Size: 1}
	})
	pol := RetryPolicy{
		MaxAttempts: 5,
		BaseBackoff: 10 * sim.Millisecond,
		Retryable:   func(err error) bool { return errors.Is(err, errFlaky) },
	}
	var final Response
	s.Schedule(0, func() {
		client.GoRetry(trace.Ctx{}, server, "flaky", 64, nil, pol, func(r Response) { final = r })
	})
	s.Run()
	if final.Err != nil {
		t.Fatalf("final err = %v, want success after retries", final.Err)
	}
	if served != fails+1 {
		t.Errorf("server saw %d attempts, want %d", served, fails+1)
	}
	// Backoff gaps must actually elapse: 10 + 20 + 40 ms plus RTTs.
	if now := s.Now(); now < 70*sim.Millisecond {
		t.Errorf("finished at %v, want >= 70ms of backoff", now)
	}
}

func TestGoRetryStopsOnPermanentError(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(sim.Millisecond)
	errPerm := errors.New("permanent")
	served := 0
	server.Handle("bad", func(p *sim.Proc, req *Request) Response {
		served++
		return Response{Err: errPerm}
	})
	pol := RetryPolicy{MaxAttempts: 5, BaseBackoff: sim.Millisecond,
		Retryable: func(err error) bool { return false }}
	var final Response
	s.Schedule(0, func() {
		client.GoRetry(trace.Ctx{}, server, "bad", 64, nil, pol, func(r Response) { final = r })
	})
	s.Run()
	if served != 1 {
		t.Errorf("server saw %d attempts, want 1 for a permanent error", served)
	}
	if !errors.Is(final.Err, errPerm) {
		t.Errorf("final err = %v, want the permanent error", final.Err)
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
	s.Schedule(0, func() { fwd.SetDown(true) })
	s.Schedule(sim.Millisecond, func() {
		ea.Go(eb, "echo", units.MiB, nil, func(r Response) {
			if r.Err != nil {
				t.Errorf("call over flapped link failed: %v", r.Err)
			}
			doneAt = s.Now()
		})
	})
	s.Schedule(2*sim.Second, func() { fwd.SetDown(false) })
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
