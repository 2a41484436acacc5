package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"gfs/internal/core"
	"gfs/internal/critpath"
	"gfs/internal/experiments"
	"gfs/internal/netsim"
	"gfs/internal/sim"
	"gfs/internal/trace"
	"gfs/internal/units"
)

// opKind classifies the file-system calls the driver times.
type opKind int

const (
	opRead  opKind = iota // File.ReadAt
	opWrite               // File.WriteAt
	opMeta                // Mount.Create, Stat, Remove
	opOpen                // Mount.Open
	opClose               // File.Close
	nOps
)

var opNames = [nOps]string{"read", "write", "meta", "open", "close"}

// mode selects what one iteration does after set-up.
type mode int

const (
	setupOnly mode = iota // build, key, mount and seed, then stop
	plain                 // run the measured phases with nothing attached
	profiled              // plain, under a pprof CPU profile
	traced                // engine probe and critpath tracer attached
)

// phase is one measured stretch of virtual time (a read pass, a write
// pass, a storm).
type phase struct {
	name  string
	start sim.Time
	dur   sim.Time
	calls [nOps]int
	bytes [nOps]units.Bytes
}

func (ph *phase) end(p *sim.Proc) { ph.dur = p.Now() - ph.start }

// wallSplit is where one iteration's wall time went.
type wallSplit struct {
	keygen   time.Duration // NewSite: RSA key generation in core.NewCluster
	mount    time.Duration // MountAll
	setup    time.Duration // everything before the measured phases
	measured time.Duration // measured phases until the simulator drains
}

// iter is one build-and-run of a workload: a fresh simulator, its
// topology and the driver's closed-loop clients.
type iter struct {
	seed int64
	mode mode

	start time.Time
	wall  wallSplit

	s      *sim.Sim
	nw     *netsim.Network
	sites  []*experiments.Site
	mounts []*core.Mount // the mounts the measured phases use

	planned [nOps]int
	done    [nOps]int
	bytes   [nOps]units.Bytes
	lats    [nOps][]int64 // virtual ns per successful call
	phases  []*phase
	cur     *phase

	measuring     bool
	measureStart  time.Time
	simBegin      sim.Time
	simEnd        sim.Time
	before, after counters
	mallocs       uint64 // heap allocations during the measured phases

	probe   *sim.EngineProbe
	agg     *critpath.Agg
	profile bytes.Buffer

	setupErr error
	errs     []string // first few failed calls
	wrongs   []string // output checks that failed

	// Computed when the iteration ends, after which the simulator is
	// released: a run keeps only these.
	mod, layers, det, engine, crit metrics
}

func (it *iter) rng() *rand.Rand {
	if it.seed == 0 {
		return nil
	}
	return rand.New(rand.NewSource(it.seed))
}

// newSite is experiments.NewSite with its key generation timed.
func (it *iter) newSite(nw *netsim.Network, name string) *experiments.Site {
	t := time.Now()
	site := experiments.NewSite(nw.Sim, nw, name)
	it.wall.keygen += time.Since(t)
	return site
}

// attach records the built topology.
func (it *iter) attach(s *sim.Sim, nw *netsim.Network, sites ...*experiments.Site) {
	it.s, it.nw, it.sites = s, nw, sites
}

// plan declares n calls of one kind the measured phases will attempt.
func (it *iter) plan(op opKind, n int) { it.planned[op] += n }

func (it *iter) mountAll(p *sim.Proc, clients []*core.Client, local *core.FileSystem, device string) ([]*core.Mount, error) {
	t := time.Now()
	ms, err := experiments.MountAll(p, clients, local, device)
	it.wall.mount += time.Since(t)
	return ms, err
}

// drive runs fn as the simulator's driving process until the event
// queue drains. A set-up error is recorded, never panicked on.
func (it *iter) drive(fn func(p *sim.Proc) error) {
	it.s.Go("bench", func(p *sim.Proc) {
		if err := fn(p); err != nil {
			it.setupErr = err
		}
	})
	it.s.Run()
	if !it.measuring {
		if it.wall.setup == 0 {
			it.wall.setup = time.Since(it.start)
		}
		return
	}
	it.wall.measured = time.Since(it.measureStart)
	switch it.mode {
	case profiled:
		pprof.StopCPUProfile()
	case traced:
		it.s.SetEngineProbe(nil)
		it.s.SetTracer(nil)
	}
	it.mallocs = heapAllocs() - it.mallocs
	it.simEnd = it.s.Now()
	it.after = readCounters(it)
}

// begin ends set-up. It reports whether the measured phases should run,
// and attaches the probe, tracer or profiler the mode asks for.
func (it *iter) begin(p *sim.Proc, mounts []*core.Mount) bool {
	it.wall.setup = time.Since(it.start)
	it.mounts = mounts
	if it.mode == setupOnly {
		return false
	}
	it.measuring = true
	it.simBegin = p.Now()
	it.before = readCounters(it)
	switch it.mode {
	case profiled:
		if err := pprof.StartCPUProfile(&it.profile); err != nil {
			it.wrong("cpu profile: %v", err)
		}
	case traced:
		// The same planes experiments.SetObservability wires with Engine
		// and Trace+Agg, attached only for the measured phases.
		it.probe = sim.NewEngineProbe()
		it.s.SetEngineProbe(it.probe)
		it.agg = critpath.NewAgg()
		tr := trace.New()
		tr.Configure(trace.Config{Discard: true, Observer: it.agg.Observe})
		it.s.SetTracer(tr)
	}
	it.mallocs = heapAllocs()
	it.measureStart = time.Now()
	return true
}

func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// phase opens a measured phase at the current virtual time.
func (it *iter) phase(p *sim.Proc, name string) *phase {
	ph := &phase{name: name, start: p.Now()}
	it.phases = append(it.phases, ph)
	it.cur = ph
	return ph
}

// call times one file-system call in virtual time. A failed call is
// counted, not fatal: the caller's client stops, and its remaining
// planned calls count as failed too.
func (it *iter) call(p *sim.Proc, op opKind, n units.Bytes, fn func() error) error {
	t := p.Now()
	if err := fn(); err != nil {
		if len(it.errs) < 5 {
			it.errs = append(it.errs, fmt.Sprintf("%s: %v", opNames[op], err))
		}
		return err
	}
	it.done[op]++
	it.bytes[op] += n
	it.lats[op] = append(it.lats[op], int64(p.Now()-t))
	if it.cur != nil {
		it.cur.calls[op]++
		it.cur.bytes[op] += n
	}
	return nil
}

// wrong records a failed output check.
func (it *iter) wrong(format string, args ...any) {
	it.wrongs = append(it.wrongs, fmt.Sprintf(format, args...))
}

// wantBytes checks that the measured phases moved exactly n user bytes
// of one kind.
func (it *iter) wantBytes(op opKind, n units.Bytes) {
	if it.measuring && it.bytes[op] != n {
		it.wrong("%s bytes moved %d, want %d", opNames[op], it.bytes[op], n)
	}
}

func (it *iter) attempted() int {
	n := 0
	for _, v := range it.planned {
		n += v
	}
	return n
}

func (it *iter) failed() int {
	n := 0
	for op := range it.planned {
		if it.setupErr != nil {
			n += it.planned[op]
		} else if it.done[op] < it.planned[op] {
			n += it.planned[op] - it.done[op]
		}
	}
	return n
}

// runIter builds and runs one iteration of w.
func runIter(w workload, seed int64, m mode) *iter {
	it := &iter{seed: seed, mode: m, start: time.Now()}
	w.run(it)
	if it.setupErr != nil {
		it.wrong("set-up: %v", it.setupErr)
	}
	if it.measuring {
		it.checkAccounting()
	}
	// Computed even when set-up failed, so a failed run still reports
	// every metric (as zero) beside its failure count.
	it.mod = modeled(it)
	it.layers = layerCounters(it)
	it.det = determinism(it)
	if it.mode == traced {
		it.engine = engineLayers(it)
		it.crit = critpathLayers(it)
	}
	it.s, it.nw, it.sites, it.mounts = nil, nil, nil, nil
	it.probe, it.agg, it.lats = nil, nil, [nOps][]int64{}
	return it
}

// checkAccounting cross-checks the driver's call counts against the
// mounts' own statistics. (Mount byte counters count pages moved, not
// user bytes, so they are not comparable.)
func (it *iter) checkAccounting() {
	for op := range it.done {
		if it.done[op] > it.planned[op] {
			it.wrong("%d %s calls completed, %d planned", it.done[op], opNames[op], it.planned[op])
		}
	}
	rd := it.after.mount.Reads - it.before.mount.Reads
	wr := it.after.mount.Writes - it.before.mount.Writes
	if rd != uint64(it.done[opRead]) || wr != uint64(it.done[opWrite]) {
		it.wrong("mount stats count %d reads and %d writes, driver %d and %d", rd, wr, it.done[opRead], it.done[opWrite])
	}
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
