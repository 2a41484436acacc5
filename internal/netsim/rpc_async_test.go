package netsim

import (
	"fmt"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// kindTestServe labels the service-start events of the continuation
// handlers these tests register.
var kindTestServe = sim.RegisterEventKind("netsim.test_serve")

// runFrontBack drives 16 callers, each making 8 blocking Calls to a
// front service that answers every third call with an error at once
// and forwards the rest to a back echo service (seeded random service
// times, so responses complete out of issue order), replying from the
// nested call's completion. The front runs in the continuation form
// when async is set, in the process form otherwise. It returns one log
// line per returned call plus the final clock and event count.
func runFrontBack(t *testing.T, async bool) []string {
	s := sim.New()
	nw := New(s)
	sw := nw.NewNode("switch")
	ep := func(name string) *Endpoint {
		n := nw.NewNode(name)
		nw.DuplexLink(name, n, sw, units.Gbps, sim.Millisecond)
		return nw.NewEndpoint(n, 2)
	}
	client, front, back := ep("client"), ep("front"), ep("back")
	handleEcho(back, 5)
	if async {
		front.HandleAsync("get", kindTestServe, func(req *Request, reply func(Response)) {
			pl := req.Payload.(echoPayload)
			if err := echoErr(pl); err != nil {
				reply(Response{Size: 64, Err: err})
				return
			}
			front.GoCtx(req.Ctx, back, "echo", 64, pl, func(r Response) {
				// The request outlives the nested call: its record is not
				// recycled until the reply lands at the caller.
				if got, _ := req.Payload.(echoPayload); got != pl {
					t.Errorf("call %v: request payload %v at reply time", pl, req.Payload)
				}
				reply(Response{Size: 64, Payload: r.Payload, Err: r.Err})
			})
		})
	} else {
		front.Handle("get", func(p *sim.Proc, req *Request) Response {
			pl := req.Payload.(echoPayload)
			if err := echoErr(pl); err != nil {
				return Response{Size: 64, Err: err}
			}
			r := front.Call(p, back, "echo", 64, pl)
			return Response{Size: 64, Payload: r.Payload, Err: r.Err}
		})
	}
	var log []string
	for c := 0; c < 16; c++ {
		s.Go("caller", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				pl := echoPayload{c, i}
				r := client.Call(p, front, "get", 64, pl)
				if r.Err == nil {
					checkEcho(t, pl, r)
				} else if r.Err.Error() != echoErr(pl).Error() {
					t.Errorf("call %v: err %v", pl, r.Err)
				}
				log = append(log, fmt.Sprintf("%d %v %v", s.Now(), pl, r.Err))
			}
		})
	}
	s.Run()
	if len(log) != 16*8 {
		t.Fatalf("%d of %d calls returned", len(log), 16*8)
	}
	return append(log, fmt.Sprintf("end %d events %d", s.Now(), s.EventsFired()))
}

// TestAsyncHandlerMatchesProcessForm: a continuation-form handler that
// replies after a nested GoCtx, or at once with an error, returns every
// call at the same instant, after the same number of events, as the
// process-form handler it replaces.
func TestAsyncHandlerMatchesProcessForm(t *testing.T) {
	t.Parallel()
	got, want := runFrontBack(t, true), runFrontBack(t, false)
	if len(got) != len(want) {
		t.Fatalf("%d log lines, process form %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q, process form %q", i, got[i], want[i])
		}
	}
}
