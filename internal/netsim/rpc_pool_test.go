package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// echoPayload identifies one call: which caller, which of its calls.
type echoPayload struct{ caller, seq int }

// echoErr is the error the echo handler returns for every third call, so
// a record handing one caller another caller's error shows up too.
func echoErr(pl echoPayload) error {
	if pl.seq%3 == 2 {
		return fmt.Errorf("echo error %d/%d", pl.caller, pl.seq)
	}
	return nil
}

// handleEcho registers an echo service that sleeps a seeded random
// service time, so responses complete out of issue order.
func handleEcho(server *Endpoint, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	server.Handle("echo", func(p *sim.Proc, req *Request) Response {
		pl := req.Payload.(echoPayload)
		p.Sleep(sim.Time(rng.Int63n(int64(5 * sim.Millisecond))))
		return Response{Size: 64, Payload: pl, Err: echoErr(pl)}
	})
}

// checkEcho fails t unless r is the echo of pl.
func checkEcho(t *testing.T, pl echoPayload, r Response) {
	t.Helper()
	if got, _ := r.Payload.(echoPayload); got != pl {
		t.Errorf("call %v: payload %v", pl, r.Payload)
	}
	want := echoErr(pl)
	if (want == nil) != (r.Err == nil) || (want != nil && r.Err.Error() != want.Error()) {
		t.Errorf("call %v: err %v, want %v", pl, r.Err, want)
	}
}

func TestRPCPoolConcurrentCallers(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		s, client, server := rpcPair(sim.Millisecond)
		handleEcho(server, seed)
		const callers, calls = 64, 8
		finished := 0
		for c := 0; c < callers; c++ {
			s.Go("caller", func(p *sim.Proc) {
				for i := 0; i < calls; i++ {
					pl := echoPayload{c, i}
					checkEcho(t, pl, client.Call(p, server, "echo", 64, pl))
				}
				finished++
			})
		}
		s.Run()
		if finished != callers {
			t.Fatalf("seed %d: %d of %d callers finished", seed, finished, callers)
		}
		if n := len(client.net.callFree); n > callers {
			t.Errorf("seed %d: %d records pooled for %d concurrent callers", seed, n, callers)
		}
	}
}

func TestRPCPoolCallerKilledWhileBlocked(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(sim.Millisecond)
	handleEcho(server, 7)
	victimReturned := false
	victim := s.Go("victim", func(p *sim.Proc) {
		client.Call(p, server, "echo", 64, echoPayload{0, 0})
		victimReturned = true
	})
	done := 0
	s.Go("killer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // the victim's request is on the wire
		victim.Kill()
		for i := 0; i < 16; i++ {
			pl := echoPayload{1, i}
			checkEcho(t, pl, client.Call(p, server, "echo", 64, pl))
			done++
		}
	})
	// A second caller overlaps the victim's abandoned response.
	s.Go("other", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			pl := echoPayload{2, i}
			checkEcho(t, pl, client.Call(p, server, "echo", 64, pl))
			done++
		}
	})
	s.Run()
	if victimReturned {
		t.Error("killed caller returned from Call")
	}
	if done != 32 {
		t.Fatalf("%d of 32 calls after the kill completed", done)
	}
	if client.InFlight() != 0 {
		t.Errorf("in flight after drain = %d", client.InFlight())
	}
}

func TestRPCPoolDeadlineFiresOnce(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(sim.Millisecond)
	server.Handle("slow", func(p *sim.Proc, req *Request) Response {
		p.Sleep(50 * sim.Millisecond)
		return Response{Size: 64, Payload: req.Payload}
	})
	handleEcho(server, 3)
	var got []Response
	s.Post(sim.KindOther, 0, func() {
		client.GoDeadline(trace.Ctx{}, server, "slow", 64, "late", 10*sim.Millisecond,
			func(r Response) { got = append(got, r) })
	})
	done := 0
	s.Go("after", func(p *sim.Proc) {
		p.Sleep(100 * sim.Millisecond) // the late response has landed
		for i := 0; i < 8; i++ {
			pl := echoPayload{0, i}
			checkEcho(t, pl, client.Call(p, server, "echo", 64, pl))
			done++
		}
	})
	s.Run()
	if len(got) != 1 || !errors.Is(got[0].Err, ErrDeadline) {
		t.Fatalf("onDone fired %d times (%v), want once with ErrDeadline", len(got), got)
	}
	if done != 8 {
		t.Fatalf("%d of 8 calls after the deadline completed", done)
	}
	// One call at a time from here on: the late response's record was
	// recycled and every later call reused it.
	if n := len(client.net.callFree); n != 1 {
		t.Errorf("%d records pooled, want 1", n)
	}
}

func TestRPCPoolOnDoneIssuesNextCall(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(sim.Millisecond)
	handleEcho(server, 11)
	const n = 32
	done := 0
	var next func(i int)
	next = func(i int) {
		pl := echoPayload{0, i}
		client.GoCtx(trace.Ctx{}, server, "echo", 64, pl, func(r Response) {
			checkEcho(t, pl, r)
			done++
			if i+1 < n {
				next(i + 1)
			}
		})
	}
	s.Post(sim.KindOther, 0, func() { next(0) })
	s.Run()
	if done != n {
		t.Fatalf("%d of %d chained calls completed", done, n)
	}
	// The record is freed before onDone runs, so each next call takes
	// the record of the call that just finished: the chain never holds
	// more than one.
	if k := len(client.net.callFree); k != 1 {
		t.Errorf("%d records pooled after a chain of %d, want 1", k, n)
	}
}

func TestRPCInFlightGaugeIsNetworkWide(t *testing.T) {
	t.Parallel()
	s := sim.New()
	nw := New(s)
	srv := nw.NewNode("server")
	var eps []*Endpoint
	for i := 0; i < 2; i++ {
		n := nw.NewNode(fmt.Sprintf("client%d", i))
		nw.DuplexLink(n.Name(), n, srv, units.Gbps, sim.Millisecond)
		eps = append(eps, nw.NewEndpoint(n, 1))
	}
	server := nw.NewEndpoint(srv, 1)
	server.Handle("slow", func(p *sim.Proc, req *Request) Response {
		p.Sleep(10 * sim.Millisecond)
		return Response{Size: 64}
	})
	done := 0
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < 3; i++ {
			eps[0].GoCtx(trace.Ctx{}, server, "slow", 64, nil, func(Response) { done++ })
		}
		for i := 0; i < 2; i++ {
			eps[1].GoCtx(trace.Ctx{}, server, "slow", 64, nil, func(Response) { done++ })
		}
		if eps[0].InFlight() != 3 || eps[1].InFlight() != 2 {
			t.Errorf("per-endpoint in flight = %d, %d; want 3, 2", eps[0].InFlight(), eps[1].InFlight())
		}
		if st := nw.Stats(); st.InFlight != 5 {
			t.Errorf("network in flight after issue = %d, want the total 5", st.InFlight)
		}
	})
	s.Run()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	if st := nw.Stats(); st.InFlight != 0 || st.PeakInFlight != 5 || st.RPCCalls != 5 {
		t.Errorf("after drain: in flight %d (peak %d), %d calls; want 0 (peak 5), 5 calls",
			st.InFlight, st.PeakInFlight, st.RPCCalls)
	}
	if eps[0].PeakInFlight() != 3 || eps[1].PeakInFlight() != 2 {
		t.Errorf("per-endpoint peaks = %d, %d; want 3, 2", eps[0].PeakInFlight(), eps[1].PeakInFlight())
	}
}

// callLoop starts a process that performs blocking echo Calls one after
// another, forever, and returns a step function that runs the simulator
// until one more Call has returned. The echo service is registered in
// the continuation form when async is set, in the process form
// otherwise.
func callLoop(tb testing.TB, async bool) func() {
	s, client, server := rpcPair(sim.Millisecond)
	if async {
		server.HandleAsync("echo", kindTestServe, func(req *Request, reply func(Response)) {
			reply(Response{Size: req.Size, Payload: req.Payload})
		})
	} else {
		server.Handle("echo", func(p *sim.Proc, req *Request) Response {
			return Response{Size: req.Size, Payload: req.Payload}
		})
	}
	calls := 0
	s.Go("caller", func(p *sim.Proc) {
		for {
			if client.Call(p, server, "echo", 64, nil).Err != nil {
				tb.Error("echo failed")
			}
			calls++
		}
	})
	return func() {
		for want := calls + 1; calls < want; {
			if !s.Step() {
				tb.Fatal("simulator drained mid-call")
			}
		}
	}
}

// TestCallAllocs pins a steady-state blocking Call to the allocations of
// the handler's process (one Sim.Go) and nothing more: the call record,
// messages, events and conn queues are all recycled.
func TestCallAllocs(t *testing.T) {
	s := sim.New()
	spawn := testing.AllocsPerRun(200, func() {
		s.Go("x", func(*sim.Proc) {})
		s.Step()
	})
	step := callLoop(t, false)
	for i := 0; i < 16; i++ {
		step() // warm the pools
	}
	call := testing.AllocsPerRun(200, step)
	if call > spawn {
		t.Errorf("steady-state Call allocates %.1f objects, want at most Sim.Go's %.1f", call, spawn)
	}
}

// TestAsyncCallAllocs pins a steady-state round trip to a continuation-
// form handler at zero allocations: no process, no wake, the record's
// reply bound once.
func TestAsyncCallAllocs(t *testing.T) {
	step := callLoop(t, true)
	for i := 0; i < 16; i++ {
		step() // warm the pools
	}
	if call := testing.AllocsPerRun(200, step); call != 0 {
		t.Errorf("steady-state Call to a continuation handler allocates %.1f objects, want 0", call)
	}
}
