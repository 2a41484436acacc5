package netsim

import (
	"errors"

	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// ErrDeadline is the failure a deadline-bounded call reports when no
// response arrives in time. The late response, if it ever lands, is
// discarded — the caller has moved on.
var ErrDeadline = errors.New("netsim: call deadline exceeded")

// RetryPolicy governs recovery from transient RPC failures: how many
// times to try, how long each attempt may take, and how long to back off
// between attempts. The zero value means one attempt, no deadline —
// exactly the pre-policy behaviour. The caller runs the attempts (core's
// NSD I/O pairs them with server failover); each one is a GoDeadline.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values below 1 mean 1: no retries.
	MaxAttempts int
	// BaseBackoff is the gap before the first retry; each further retry
	// doubles it (exponential backoff).
	BaseBackoff sim.Time
	// MaxBackoff caps the doubled gap. Zero means no cap.
	MaxBackoff sim.Time
	// Deadline bounds each attempt; an attempt with no response after
	// this long fails with ErrDeadline. Zero waits forever.
	Deadline sim.Time
}

// Attempts returns the effective attempt budget (>= 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the gap to sleep after failed attempt n (1-based):
// BaseBackoff doubled n-1 times, capped at MaxBackoff.
func (p RetryPolicy) Backoff(n int) sim.Time {
	d := p.BaseBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// GoDeadline is GoCtx bounded by a deadline: if the response has not
// arrived after deadline, onDone fires once with ErrDeadline and the
// real response is discarded when (if) it lands. A zero deadline is
// plain GoCtx.
func (e *Endpoint) GoDeadline(ctx trace.Ctx, peer *Endpoint, service string, reqSize units.Bytes, payload any, deadline sim.Time, onDone func(Response)) {
	if deadline <= 0 {
		e.GoCtx(ctx, peer, service, reqSize, payload, onDone)
		return
	}
	nw := e.net
	expired := false
	var timer sim.Event
	nw.Sim.Arm(&timer, kindRPCTimer, deadline, func() {
		expired = true
		nw.st.DeadlineExpired++
		if onDone != nil {
			onDone(Response{Err: ErrDeadline})
		}
	})
	e.GoCtx(ctx, peer, service, reqSize, payload, func(r Response) {
		if expired {
			return // late response; the caller already saw ErrDeadline
		}
		timer.Cancel()
		if onDone != nil {
			onDone(r)
		}
	})
}
