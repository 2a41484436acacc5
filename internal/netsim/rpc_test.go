package netsim

import (
	"errors"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

func rpcPair(delay sim.Time) (*sim.Sim, *Endpoint, *Endpoint) {
	s := sim.New()
	nw := New(s)
	a := nw.NewNode("client")
	b := nw.NewNode("server")
	nw.DuplexLink("ab", a, b, 10*units.Gbps, delay)
	ea := nw.NewEndpoint(a, 1)
	eb := nw.NewEndpoint(b, 1)
	return s, ea, eb
}

func TestRPCRoundTrip(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(40 * sim.Millisecond)
	server.Handle("echo", func(p *sim.Proc, req *Request) Response {
		return Response{Size: req.Size, Payload: req.Payload}
	})
	var got any
	var at sim.Time
	s.Go("caller", func(p *sim.Proc) {
		resp := client.Call(p, server, "echo", units.KiB, "hello")
		got = resp.Payload
		at = p.Now()
	})
	s.Run()
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
	// Round trip must include at least 2 propagation delays.
	if at < 80*sim.Millisecond {
		t.Errorf("RTT = %v, want >= 80ms", at)
	}
	if at > 90*sim.Millisecond {
		t.Errorf("RTT = %v, want ~80ms for a 1 KiB echo", at)
	}
}

func TestRPCHandlerMayBlock(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(0)
	server.Handle("slow", func(p *sim.Proc, req *Request) Response {
		p.Sleep(5 * sim.Second) // simulated disk service
		return Response{Size: 1}
	})
	var at sim.Time
	s.Go("caller", func(p *sim.Proc) {
		client.Call(p, server, "slow", 1, nil)
		at = p.Now()
	})
	s.Run()
	if at < 5*sim.Second {
		t.Errorf("response at %v, want >= 5s", at)
	}
}

func TestRPCPipelinedGo(t *testing.T) {
	t.Parallel()
	// Many async requests overlap: total time must be far below serial.
	s, client, server := rpcPair(40 * sim.Millisecond)
	server.Handle("get", func(p *sim.Proc, req *Request) Response {
		return Response{Size: units.KiB}
	})
	n := 0
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < 32; i++ {
			client.GoCtx(trace.Ctx{}, server, "get", 64, nil, func(Response) { n++ })
		}
	})
	s.Run()
	if n != 32 {
		t.Fatalf("completed %d of 32", n)
	}
	// Serial would be 32*80 ms = 2.56 s; pipelined shares the conns.
	if s.Now() > 500*sim.Millisecond {
		t.Errorf("pipelined RPCs took %v", s.Now())
	}
}

func TestRPCErrorPropagates(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(0)
	sentinel := errors.New("no such block")
	server.Handle("fail", func(p *sim.Proc, req *Request) Response {
		return Response{Size: 16, Err: sentinel}
	})
	var got error
	s.Go("caller", func(p *sim.Proc) {
		got = client.Call(p, server, "fail", 16, nil).Err
	})
	s.Run()
	if got != sentinel {
		t.Fatalf("err = %v", got)
	}
}

func TestRPCUnknownServicePanics(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(0)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown service did not panic")
		}
	}()
	s.Post(sim.KindOther, 0, func() { client.GoCtx(trace.Ctx{}, server, "nope", 1, nil, nil) })
	s.Run()
}

func TestRPCDuplicateServicePanics(t *testing.T) {
	t.Parallel()
	_, _, server := rpcPair(0)
	server.Handle("x", func(p *sim.Proc, req *Request) Response { return Response{} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	server.Handle("x", func(p *sim.Proc, req *Request) Response { return Response{} })
}

func TestRPCMultipleConnsRaiseWindow(t *testing.T) {
	t.Parallel()
	// Over a long fat path with a modest per-conn window, 4 conns should
	// move bulk data ~4x faster than 1 conn.
	run := func(conns int) sim.Time {
		s := sim.New()
		nw := New(s)
		nw.DefaultTCP = TCPConfig{MaxWindow: 2 * units.MiB} // no ramp
		a := nw.NewNode("a")
		b := nw.NewNode("b")
		nw.DuplexLink("ab", a, b, 10*units.Gbps, 40*sim.Millisecond)
		ea := nw.NewEndpoint(a, conns)
		eb := nw.NewEndpoint(b, conns)
		eb.Handle("read", func(p *sim.Proc, req *Request) Response {
			return Response{Size: 8 * units.MiB}
		})
		done := 0
		s.Post(sim.KindOther, 0, func() {
			for i := 0; i < 64; i++ {
				ea.GoCtx(trace.Ctx{}, eb, "read", 64, nil, func(Response) { done++ })
			}
		})
		s.Run()
		if done != 64 {
			t.Fatalf("done = %d", done)
		}
		return s.Now()
	}
	t1 := run(1)
	t4 := run(4)
	if float64(t4) > float64(t1)*0.4 {
		t.Errorf("4 conns took %v vs 1 conn %v; want big speedup", t4, t1)
	}
}

func TestInFlightAccounting(t *testing.T) {
	t.Parallel()
	s, client, server := rpcPair(10 * sim.Millisecond)
	server.Handle("read", func(p *sim.Proc, req *Request) Response {
		return Response{Size: units.KiB}
	})
	if client.InFlight() != 0 || client.PeakInFlight() != 0 {
		t.Fatalf("fresh endpoint: in_flight=%d peak=%d", client.InFlight(), client.PeakInFlight())
	}
	const n = 8
	done := 0
	s.Post(sim.KindOther, 0, func() {
		for i := 0; i < n; i++ {
			client.GoCtx(trace.Ctx{}, server, "read", 64, nil, func(Response) { done++ })
		}
		if client.InFlight() != n {
			t.Errorf("after issue: in_flight = %d, want %d", client.InFlight(), n)
		}
	})
	s.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	if client.InFlight() != 0 {
		t.Errorf("after drain: in_flight = %d, want 0", client.InFlight())
	}
	if client.PeakInFlight() != n {
		t.Errorf("peak = %d, want %d", client.PeakInFlight(), n)
	}
}
