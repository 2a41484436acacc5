// Package fault injects failures into a simulation on a virtual-time
// script. A Plan is a deterministic schedule of fault and repair events —
// an NSD server crash and restart, a disk failure with its RAID rebuild,
// a WAN link outage or flap, a client node death — built up-front and
// installed onto a simulator before Run. Because everything is driven by
// the discrete-event clock, a scripted failure scenario replays byte-for-
// byte: two runs of the same plan produce identical traces, which is what
// makes recovery behaviour testable at all.
//
// Every injected event emits a "fault" trace instant, so the timeline of
// what-broke-when is recorded alongside the workload's own spans and
// critical-path attribution can show recovery cost in context.
package fault

import (
	"fmt"

	"gfs/internal/core"
	"gfs/internal/disk"
	"gfs/internal/netsim"
	"gfs/internal/raid"
	"gfs/internal/sim"
	"gfs/internal/trace"
)

// Plan is a named, ordered schedule of fault events.
type Plan struct {
	name   string
	events []event
}

type event struct {
	at   sim.Time
	name string
	fn   func(s *sim.Sim)
}

// NewPlan starts an empty fault plan.
func NewPlan(name string) *Plan {
	return &Plan{name: name}
}

// Name returns the plan's name.
func (p *Plan) Name() string { return p.name }

// Len returns the number of scheduled events.
func (p *Plan) Len() int { return len(p.events) }

// At schedules an arbitrary named event at absolute virtual time t. The
// callback runs in event context (no blocking); spawn a process via
// s.Go for work that takes simulated time.
func (p *Plan) At(t sim.Time, name string, fn func(s *sim.Sim)) *Plan {
	p.events = append(p.events, event{at: t, name: name, fn: fn})
	return p
}

// instant emits one fault-timeline marker.
func instant(s *sim.Sim, name, track string, args ...trace.Arg) {
	if tr := s.Tracer(); tr != nil {
		tr.InstantCtx(trace.Ctx{}, "fault", name, track, int64(s.Now()), args...)
	}
}

// ServerCrash takes an NSD server down at time at; if outage > 0 the
// server restarts that much later. While down, the server refuses new
// requests (in-flight ones complete, as a wedged-then-fenced node's
// would); clients ride through via retry and primary/backup failover.
func (p *Plan) ServerCrash(at, outage sim.Time, srv *core.NSDServer) *Plan {
	p.At(at, "server_crash", func(s *sim.Sim) {
		srv.Fail()
		instant(s, "server_crash", srv.Name)
	})
	if outage > 0 {
		p.At(at+outage, "server_restart", func(s *sim.Sim) {
			srv.Recover()
			instant(s, "server_restart", srv.Name)
		})
	}
	return p
}

// DiskFail fails one member of a RAID set at time at. Reads continue
// degraded — every surviving member is read and the missing strip is
// reconstructed from parity — until RepairDisk or a Rebuild completes.
func (p *Plan) DiskFail(at sim.Time, name string, set *raid.Set, member int) *Plan {
	p.At(at, "disk_fail", func(s *sim.Sim) {
		set.FailDisk(member)
		instant(s, "disk_fail", name, trace.I("member", int64(member)))
	})
	return p
}

// Rebuild starts reconstructing a failed RAID member onto a spare drive
// at time at. The rebuild is a real simulated workload — it reads every
// surviving member and writes the spare, competing with foreground I/O —
// and the set leaves degraded mode when it finishes.
func (p *Plan) Rebuild(at sim.Time, name string, set *raid.Set, spare *disk.Disk) *Plan {
	p.At(at, "rebuild", func(s *sim.Sim) {
		s.Go("rebuild:"+name, func(proc *sim.Proc) {
			instant(s, "rebuild_start", name)
			set.Rebuild(proc, spare)
			instant(s, "rebuild_done", name)
		})
	})
	return p
}

// LinkDown fails one or more network links at time at; if outage > 0
// they are restored that much later. A down link carries nothing — conns
// crossing it stall at rate zero and resume without loss on repair.
func (p *Plan) LinkDown(at, outage sim.Time, links ...*netsim.Link) *Plan {
	p.At(at, "link_down", func(s *sim.Sim) {
		for _, l := range links {
			l.SetDown(true)
			instant(s, "link_down", l.Name())
		}
	})
	if outage > 0 {
		p.At(at+outage, "link_up", func(s *sim.Sim) {
			for _, l := range links {
				l.SetDown(false)
				instant(s, "link_up", l.Name())
			}
		})
	}
	return p
}

// LinkFlap fails and restores links count times: down at at, up after
// downFor, down again after upFor, and so on.
func (p *Plan) LinkFlap(at sim.Time, count int, downFor, upFor sim.Time, links ...*netsim.Link) *Plan {
	t := at
	for i := 0; i < count; i++ {
		p.LinkDown(t, downFor, links...)
		t += downFor + upFor
	}
	return p
}

// ClientCrash kills a client node at time at: the client stops answering
// token revocations (its tokens expire after the filesystem's lease and
// are stolen back), and the given processes — the workload running on
// the node — are killed. Cached state is lost, as on a real node death.
func (p *Plan) ClientCrash(at sim.Time, cl *core.Client, procs ...*sim.Proc) *Plan {
	p.At(at, "client_crash", func(s *sim.Sim) {
		cl.Fail()
		for _, pr := range procs {
			pr.Kill()
		}
		instant(s, "client_crash", cl.ID())
	})
	return p
}

// Install schedules every planned event onto the simulator. Events fire
// in (time, insertion-order) order; installing a plan whose earliest
// event is already in the past panics: it would corrupt causality.
func (p *Plan) Install(s *sim.Sim) {
	for i := range p.events {
		e := p.events[i]
		if e.at < s.Now() {
			panic(fmt.Sprintf("fault: plan %s: event %s at %v is in the past (now %v)",
				p.name, e.name, e.at, s.Now()))
		}
		s.Post(sim.KindOther, e.at-s.Now(), func() { e.fn(s) })
	}
}
