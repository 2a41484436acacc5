package sim

// Engine-plane telemetry: profiling the simulator itself, not the modeled
// hardware. The tracer (internal/trace) answers "where did the *virtual*
// time go"; the EngineProbe answers "where did the *wall-clock* go" — how
// many events the kernel executes per real second, which subsystems
// schedule them, how deep the event queue runs, and how many allocations
// each event costs. At 1024+ simulated nodes these numbers, not the
// modeled disks, bound how large a run can be, and every scheduler or
// flow-solver optimization is judged against them.
//
// Like the tracer, a disabled probe is a nil pointer: every hook in the
// kernel is a single nil check, so an unprofiled run pays ~0.

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sort"
	"time"

	"gfs/internal/trace"
)

// EventKind labels the subsystem/kind of a scheduled event for engine
// telemetry. Kinds are small dense integers so per-kind accounting is an
// array index on the event hot path.
type EventKind uint8

// KindOther is the catch-all kind: daemon ticks (PostDaemon) and events
// whose poster names no subsystem (fault plans, lease expiry, retry
// backoff).
const KindOther EventKind = 0

// kindNames maps EventKind to its registered name. Index 0 is the
// catch-all. Registration happens in package init functions, whose order
// Go fixes by import dependency, so kind IDs are deterministic — but
// reports sort by name anyway and never expose raw IDs.
var kindNames = []string{"other"}

// RegisterEventKind allocates a new event kind with the given name.
// Intended for package-level var initialization in the subsystems built
// on the kernel (netsim, core, experiments).
func RegisterEventKind(name string) EventKind {
	if len(kindNames) >= 255 {
		panic("sim: too many event kinds")
	}
	for _, n := range kindNames {
		if n == name {
			panic(fmt.Sprintf("sim: duplicate event kind %q", name))
		}
	}
	kindNames = append(kindNames, name)
	return EventKind(len(kindNames) - 1)
}

// Event kinds owned by the kernel itself.
var (
	// KindProcStart: a process spawned with Go beginning execution.
	KindProcStart = RegisterEventKind("sim.proc_start")
	// KindTimer: a Sleep/WaitUntil expiry.
	KindTimer = RegisterEventKind("sim.timer")
	// KindWake: a parked process resumed by Kill or a resource handoff.
	KindWake = RegisterEventKind("sim.wake")
)

// engineTimeOneIn is the wall-clock sampling factor: one event in this
// many is timed with a real clock read, and the measured total is scaled
// back up by the factor. A power of two keeps the test a mask. Sampling
// bounds probe overhead on runs whose events are cheaper than a clock
// read (tens of millions of zero-work timer events).
const engineTimeOneIn = 16

// engineDepthOneIn is the queue-depth histogram sampling factor.
const engineDepthOneIn = 64

// engineDepthBuckets is the number of log2 queue-depth buckets: bucket i
// holds samples with depth in [2^(i-1), 2^i).
const engineDepthBuckets = 32

// kindStats is one event kind's accounting.
type kindStats struct {
	count  uint64 // events executed
	timed  uint64 // events whose wall time was measured
	wallNs int64  // measured wall nanoseconds (scale by count/timed)
}

// EngineProbe collects engine-plane telemetry for one simulator. Attach
// with Sim.SetEngineProbe; all methods are nil-safe.
type EngineProbe struct {
	sim *Sim

	startWall  time.Time
	startSim   Time
	startFired uint64
	startHeap  uint64 // runtime mallocs at attach

	ctr   uint64 // events executed under this probe
	kinds []kindStats

	// selfAllocs counts heap allocations made by the probe itself
	// (snapshotting, trace sampling); Snapshot subtracts them so
	// AllocsPerEvent reflects the run, not the telemetry.
	selfAllocs uint64

	depthHist   [engineDepthBuckets]uint64
	depthN      uint64
	peakPending int

	// TraceSampleEvery, when > 0 and a tracer is attached, emits one
	// deterministic "engine/sample" instant into the trace every so many
	// fired events (virtual-time-stamped queue depth and event count —
	// no wall-clock, so traces stay byte-reproducible). Set before the
	// run starts.
	TraceSampleEvery uint64
}

// NewEngineProbe returns a probe ready to attach.
func NewEngineProbe() *EngineProbe {
	return &EngineProbe{kinds: make([]kindStats, len(kindNames))}
}

// SetEngineProbe attaches (or, with nil, detaches) an engine probe. The
// probe snapshots the wall clock, the virtual clock and the allocator
// counter at attach time, so rates are measured over the probed window.
func (s *Sim) SetEngineProbe(p *EngineProbe) {
	s.probe = p
	if p != nil {
		p.sim = s
		p.startWall = time.Now()
		p.startSim = s.now
		p.startFired = s.fired
		p.startHeap = heapAllocs()
	}
}

// EngineProbe returns the attached probe; nil means engine telemetry is
// disabled.
func (s *Sim) EngineProbe() *EngineProbe { return s.probe }

// heapAllocs returns the cumulative heap allocation count. ReadMemStats
// is stop-the-world expensive, which is why it runs only at attach and
// snapshot time, never per event.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// exec runs one event under the probe: per-kind counting, sampled wall
// timing, sampled queue-depth histogram, and the optional deterministic
// trace instant.
func (p *EngineProbe) exec(kind EventKind, fn func()) {
	ks := &p.kinds[kind]
	ks.count++
	p.ctr++
	if p.ctr%engineDepthOneIn == 0 {
		d := p.sim.q.len()
		p.depthHist[depthBucket(d)]++
		p.depthN++
	}
	if p.ctr%engineTimeOneIn == 0 {
		t0 := time.Now()
		fn()
		ks.wallNs += time.Since(t0).Nanoseconds()
		ks.timed++
	} else {
		fn()
	}
	if p.TraceSampleEvery > 0 && p.sim.fired%p.TraceSampleEvery == 0 {
		// Charge the sample's own allocations (trace args, stream buffers)
		// to the probe, not the run: allocs/event must stay comparable
		// whether or not engine trace sampling is on.
		a0 := heapAllocs()
		p.emitTraceSample()
		p.selfAllocs += heapAllocs() - a0
	}
}

// emitTraceSample records one deterministic engine instant in the
// attached tracer: virtual timestamp, cumulative events fired and the
// current queue depth. Wall-clock values are deliberately absent — they
// would break byte-identical trace replays.
func (p *EngineProbe) emitTraceSample() {
	tr := p.sim.tracer
	if tr == nil {
		return
	}
	tr.InstantCtx(trace.Ctx{}, "engine", "sample", "engine", int64(p.sim.now),
		trace.I("fired", int64(p.sim.fired)),
		trace.I("pending", int64(p.sim.q.len())))
}

// notePending tracks the exact event-queue high-water mark (called on
// the scheduling path, probe-enabled runs only).
func (p *EngineProbe) notePending(n int) {
	if n > p.peakPending {
		p.peakPending = n
	}
}

// NoteExternalAllocs charges n heap allocations to the telemetry plane
// rather than the run: Snapshot subtracts them from AllocsPerEvent the
// same way it subtracts the probe's own snapshotting cost. Subsystems
// that recycle buffers through arenas call this on refill misses, so an
// allocs/event bound measures steady-state allocation, not pool warm-up.
// Nil-safe.
func (p *EngineProbe) NoteExternalAllocs(n uint64) {
	if p == nil {
		return
	}
	p.selfAllocs += n
}

// depthBucket returns the log2 bucket for a queue depth.
func depthBucket(d int) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len(uint(d))
	if b >= engineDepthBuckets {
		b = engineDepthBuckets - 1
	}
	return b
}

// EngineKindStat is one event kind's share of the engine report.
type EngineKindStat struct {
	Name  string
	Count uint64
	// EstWallNs is the kind's estimated wall-clock cost: the sampled
	// measurement scaled by the sampling factor. Zero when too few events
	// of the kind were timed.
	EstWallNs int64
}

// EngineSnapshot is a point-in-time engine telemetry summary.
type EngineSnapshot struct {
	Events         uint64           // events executed in the probed window
	WallNs         int64            // wall-clock elapsed in the probed window
	SimNs          int64            // virtual time elapsed in the probed window
	EventsPerSec   float64          // events per wall-clock second
	WallPerSimSec  float64          // wall-clock seconds spent per simulated second
	AllocsPerEvent float64          // heap allocations per event
	PeakPending    int              // event-queue high-water mark
	DepthP50       int              // sampled queue depth median (log2 bucket upper bound)
	DepthP99       int              // sampled queue depth p99 (log2 bucket upper bound)
	Kinds          []EngineKindStat // sorted by name
}

// Snapshot summarizes the probe's window so far. Safe to call mid-run
// (live mmpmon snapshots) and after Run returns.
func (p *EngineProbe) Snapshot() EngineSnapshot {
	if p == nil {
		return EngineSnapshot{}
	}
	a0 := heapAllocs()
	snap := EngineSnapshot{
		Events:      p.ctr,
		WallNs:      time.Since(p.startWall).Nanoseconds(),
		SimNs:       int64(p.sim.now - p.startSim),
		PeakPending: p.peakPending,
	}
	if snap.WallNs > 0 {
		snap.EventsPerSec = float64(snap.Events) / (float64(snap.WallNs) / 1e9)
	}
	if snap.SimNs > 0 {
		snap.WallPerSimSec = float64(snap.WallNs) / float64(snap.SimNs)
	}
	if p.ctr > 0 {
		// Clamp: self-charged allocations (telemetry, arena refills) can
		// overshoot the measured window when the runtime elides workload
		// allocations; a negative rate would wrap the uint64 into garbage.
		if grew := a0 - p.startHeap; grew > p.selfAllocs {
			snap.AllocsPerEvent = float64(grew-p.selfAllocs) / float64(p.ctr)
		}
	}
	snap.DepthP50 = p.depthQuantile(0.50)
	snap.DepthP99 = p.depthQuantile(0.99)
	for k, ks := range p.kinds {
		if ks.count == 0 {
			continue
		}
		st := EngineKindStat{Name: kindNames[k], Count: ks.count}
		if ks.timed > 0 {
			st.EstWallNs = ks.wallNs * int64(ks.count) / int64(ks.timed)
		}
		snap.Kinds = append(snap.Kinds, st)
	}
	sort.Slice(snap.Kinds, func(i, j int) bool { return snap.Kinds[i].Name < snap.Kinds[j].Name })
	// A mid-run Snapshot (live mmpmon tick) allocates for the kind table;
	// keep that out of the next Snapshot's allocs/event.
	p.selfAllocs += heapAllocs() - a0
	return snap
}

// depthQuantile returns the q-quantile of sampled queue depths as the
// upper bound of its log2 bucket.
func (p *EngineProbe) depthQuantile(q float64) int {
	if p.depthN == 0 {
		return 0
	}
	rank := uint64(q * float64(p.depthN))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range p.depthHist {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			return 1 << i
		}
	}
	return 1 << (engineDepthBuckets - 1)
}

// MergeEngineSnapshots folds several probes' windows into one summary —
// experiments that build multiple simulators per run (the production
// sweep runs write and read passes on fresh sims) report one number.
func MergeEngineSnapshots(snaps []EngineSnapshot) EngineSnapshot {
	var out EngineSnapshot
	byName := map[string]*EngineKindStat{}
	var allocWeighted float64
	for _, s := range snaps {
		out.Events += s.Events
		out.WallNs += s.WallNs
		out.SimNs += s.SimNs
		if s.PeakPending > out.PeakPending {
			out.PeakPending = s.PeakPending
		}
		if s.DepthP50 > out.DepthP50 {
			out.DepthP50 = s.DepthP50
		}
		if s.DepthP99 > out.DepthP99 {
			out.DepthP99 = s.DepthP99
		}
		allocWeighted += s.AllocsPerEvent * float64(s.Events)
		for _, k := range s.Kinds {
			dst := byName[k.Name]
			if dst == nil {
				byName[k.Name] = &EngineKindStat{Name: k.Name, Count: k.Count, EstWallNs: k.EstWallNs}
				continue
			}
			dst.Count += k.Count
			dst.EstWallNs += k.EstWallNs
		}
	}
	if out.WallNs > 0 {
		out.EventsPerSec = float64(out.Events) / (float64(out.WallNs) / 1e9)
	}
	if out.SimNs > 0 {
		out.WallPerSimSec = float64(out.WallNs) / float64(out.SimNs)
	}
	if out.Events > 0 {
		out.AllocsPerEvent = allocWeighted / float64(out.Events)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Kinds = append(out.Kinds, *byName[n])
	}
	return out
}

// WriteReport renders the snapshot as an aligned text report.
func (s *EngineSnapshot) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "engine: %d events in %.3fs wall (%.0f events/sec)\n",
		s.Events, float64(s.WallNs)/1e9, s.EventsPerSec)
	fmt.Fprintf(w, "engine: %.3f sim-seconds (%.1f ms wall per sim-second)\n",
		float64(s.SimNs)/1e9, s.WallPerSimSec*1e3)
	fmt.Fprintf(w, "engine: %.1f allocs/event, queue depth p50 %d p99 %d peak %d\n",
		s.AllocsPerEvent, s.DepthP50, s.DepthP99, s.PeakPending)
	if len(s.Kinds) == 0 {
		return
	}
	fmt.Fprintf(w, "%-24s %12s %12s %8s\n", "event kind", "count", "est wall ms", "wall %")
	var totalWall int64
	for _, k := range s.Kinds {
		totalWall += k.EstWallNs
	}
	for _, k := range s.Kinds {
		pct := "-"
		if totalWall > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*float64(k.EstWallNs)/float64(totalWall))
		}
		fmt.Fprintf(w, "%-24s %12d %12.3f %8s\n",
			k.Name, k.Count, float64(k.EstWallNs)/1e6, pct)
	}
}
