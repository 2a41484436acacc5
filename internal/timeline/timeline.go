// Package timeline is the interval-windowed time-series plane: it turns
// the stack's cumulative counters into per-interval rates over virtual
// time, the representation behind every time-axis figure in the paper
// (the SC'03 dip-and-recovery of Fig. 5, the sustained multi-Gb/s
// plateaus of Figs. 10/11).
//
// A Collector ticks at a fixed virtual-time interval. At each tick it
// invokes its registered sources; a source enumerates live objects (NSD
// servers, links, clients, token managers) and emits the current value
// of each cumulative counter through Tick.Rate, which differences it
// against the previous tick and divides by the window to produce a
// rate, or an instantaneous value through Tick.Gauge. Series are born
// on first emission, so objects created mid-run join the timeline the
// window they appear.
//
// Retention is bounded the same two ways internal/trace bounds event
// retention: a per-series ring keeps only the last N windows (memory
// independent of run length), and a JSONL stream writes one line per
// tick and retains nothing. All values derive from virtual time and
// deterministic counters, so the stream is byte-identical across
// same-seed runs — the property the CI timeline gate diffs.
package timeline

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"gfs/internal/sim"
)

// Point is one window's value: T is the window-end virtual time in
// seconds, V the rate or gauge value over that window.
type Point struct {
	T float64
	V float64
}

// Series is one named time-series with optional ring retention.
type Series struct {
	Name string
	Unit string

	ring  int // max retained points; 0 = unbounded
	pts   []Point
	next  int // ring write cursor
	full  bool
	total int // points ever added, retained or not
}

// add appends one point, evicting the oldest when the ring is full.
func (se *Series) add(t, v float64) {
	se.total++
	if se.ring <= 0 {
		se.pts = append(se.pts, Point{t, v})
		return
	}
	if len(se.pts) < se.ring {
		se.pts = append(se.pts, Point{t, v})
		se.next = len(se.pts) % se.ring
		se.full = len(se.pts) == se.ring
		return
	}
	se.pts[se.next] = Point{t, v}
	se.next = (se.next + 1) % se.ring
	se.full = true
}

// Points returns the retained points oldest-first. The slice is shared
// in unbounded mode and freshly linearized in ring mode; callers must
// not mutate it.
func (se *Series) Points() []Point {
	if se.ring <= 0 || !se.full || se.next == 0 {
		return se.pts
	}
	out := make([]Point, 0, len(se.pts))
	out = append(out, se.pts[se.next:]...)
	out = append(out, se.pts[:se.next]...)
	return out
}

// Len returns the number of retained points.
func (se *Series) Len() int { return len(se.pts) }

// Total returns the number of points ever recorded, including those a
// ring has evicted.
func (se *Series) Total() int { return se.total }

// Last returns the most recent point, if any.
func (se *Series) Last() (Point, bool) {
	if len(se.pts) == 0 {
		return Point{}, false
	}
	if se.ring > 0 && se.full {
		return se.pts[(se.next+se.ring-1)%se.ring], true
	}
	return se.pts[len(se.pts)-1], true
}

// Values returns just the retained values oldest-first (for sparklines
// and imbalance math).
func (se *Series) Values() []float64 {
	pts := se.Points()
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// Snapshot is one tick's complete window: every series that emitted a
// value this interval, with deterministic (sorted) name order. It is a
// value type so exporters can hand copies across goroutines.
type Snapshot struct {
	T      float64 // window-end virtual time, seconds
	Names  []string
	Values map[string]float64
	Units  map[string]string
}

// Collector samples its sources at a fixed virtual-time interval.
type Collector struct {
	s        *sim.Sim
	interval sim.Time

	// Label names this collector in multi-run streams ("sim0", "sim1",
	// ...) so an offline reader can split a sweep's concatenated JSONL.
	Label string

	ring    int
	sources []func(*Tick)
	onTick  []func(*Collector, Snapshot)

	series  map[string]*Series
	names   []string // sorted lazily; rebuilt when dirty
	dirty   bool
	lastCum map[string]float64 // previous cumulative value per Rate/Ratio key

	stream      io.Writer
	streamErr   error
	wroteHeader bool

	last  Snapshot // most recent tick's window
	ticks int
}

// New builds a collector on s ticking every interval of virtual time
// and schedules its first tick. Ticks are daemon events: they fire
// while real work is queued but never keep Run from draining, so any
// number of collectors (and the mmpmon snapshot tick) can coexist
// without keeping each other alive.
func New(s *sim.Sim, interval sim.Time) *Collector {
	if interval <= 0 {
		panic("timeline: non-positive interval")
	}
	c := &Collector{
		s:        s,
		interval: interval,
		series:   map[string]*Series{},
		lastCum:  map[string]float64{},
	}
	s.PostDaemon(interval, c.tick)
	return c
}

// Ticks returns how many windows have closed so far.
func (c *Collector) Ticks() int { return c.ticks }

// SetRing bounds every series (existing and future) to the last n
// points. Zero restores unbounded retention for future series only.
func (c *Collector) SetRing(n int) {
	c.ring = n
	for _, se := range c.series {
		se.ring = n
	}
}

// SetStream writes one JSONL line per tick to w: a header line naming
// the collector and its interval, then {"t":...,"v":{...}} records
// with sorted keys — byte-deterministic across same-seed runs. The
// first write error is latched and reported by StreamErr.
func (c *Collector) SetStream(w io.Writer) { c.stream = w }

// StreamErr returns the first streaming write error, if any.
func (c *Collector) StreamErr() error { return c.streamErr }

// AddSource registers a sampling function invoked at every tick.
func (c *Collector) AddSource(fn func(*Tick)) { c.sources = append(c.sources, fn) }

// OnTick registers a hook invoked after each window closes with the
// window's snapshot — the live-dashboard attachment point.
func (c *Collector) OnTick(fn func(*Collector, Snapshot)) { c.onTick = append(c.onTick, fn) }

// Get returns the named series, or nil.
func (c *Collector) Get(name string) *Series { return c.series[name] }

// Names returns every series name, sorted.
func (c *Collector) Names() []string {
	if c.dirty {
		sort.Strings(c.names)
		c.dirty = false
	}
	return c.names
}

// Series returns every series sorted by name.
func (c *Collector) Series() []*Series {
	names := c.Names()
	out := make([]*Series, len(names))
	for i, n := range names {
		out[i] = c.series[n]
	}
	return out
}

// Prefix returns the series whose names start with prefix, sorted.
func (c *Collector) Prefix(prefix string) []*Series {
	var out []*Series
	for _, n := range c.Names() {
		if strings.HasPrefix(n, prefix) {
			out = append(out, c.series[n])
		}
	}
	return out
}

// Snapshot returns the most recently closed window (empty before the
// first tick).
func (c *Collector) Snapshot() Snapshot { return c.last }

func (c *Collector) seriesFor(name, unit string) *Series {
	se, ok := c.series[name]
	if !ok {
		se = &Series{Name: name, Unit: unit, ring: c.ring}
		c.series[name] = se
		c.names = append(c.names, name)
		c.dirty = true
	}
	return se
}

// Tick carries one window's emissions from sources into the collector.
type Tick struct {
	c     *Collector
	t     sim.Time
	vals  map[string]float64
	units map[string]string
}

// sanitize keeps NaN/Inf out of the series and the JSON stream.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (tk *Tick) emit(name, unit string, v float64) float64 {
	v = sanitize(v)
	tk.vals[name] = v
	tk.units[name] = unit
	return v
}

// Rate emits a cumulative counter: the value recorded is the delta
// since the previous tick divided by the interval in seconds. A
// counter first seen this tick differences against zero, which is
// correct for counters that start at zero with the simulation. The
// computed rate is returned so a source can derive further values
// (e.g. utilization = rate / capacity) without re-differencing.
func (tk *Tick) Rate(name, unit string, cum float64) float64 {
	prev := tk.c.lastCum[name]
	tk.c.lastCum[name] = cum
	return tk.emit(name, unit, (cum-prev)/tk.c.interval.Seconds())
}

// Ratio emits the windowed quotient of two cumulative counters:
// (num-prevNum)/(den-prevDen), or zero when the denominator did not
// advance. The canonical use is a per-window cache-hit rate from
// cumulative hits and accesses.
func (tk *Tick) Ratio(name, unit string, num, den float64) float64 {
	pn, pd := tk.c.lastCum[name+"\x00n"], tk.c.lastCum[name+"\x00d"]
	tk.c.lastCum[name+"\x00n"], tk.c.lastCum[name+"\x00d"] = num, den
	dn, dd := num-pn, den-pd
	if dd <= 0 {
		return tk.emit(name, unit, 0)
	}
	return tk.emit(name, unit, dn/dd)
}

// Seen reports whether the collector already tracks the named series.
// A source can use it to emit a noisy gauge only once it has ever been
// interesting (non-zero), while still recording the return to zero.
func (tk *Tick) Seen(name string) bool {
	_, ok := tk.c.series[name]
	return ok
}

// Gauge emits an instantaneous value (queue depth, in-flight RPCs).
func (tk *Tick) Gauge(name, unit string, v float64) float64 {
	return tk.emit(name, unit, v)
}

// tick closes one window: run the sources, record every emission,
// stream the JSONL line, fire the hooks, reschedule.
func (c *Collector) tick() {
	now := c.s.Now()
	tk := &Tick{c: c, t: now, vals: map[string]float64{}, units: map[string]string{}}
	for _, src := range c.sources {
		src(tk)
	}
	c.ticks++

	names := make([]string, 0, len(tk.vals))
	for n := range tk.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	secs := now.Seconds()
	for _, n := range names {
		c.seriesFor(n, tk.units[n]).add(secs, tk.vals[n])
	}
	c.last = Snapshot{T: secs, Names: names, Values: tk.vals, Units: tk.units}

	if c.stream != nil && c.streamErr == nil {
		c.writeStreamLine(secs, names, tk.vals)
	}
	for _, fn := range c.onTick {
		fn(c, c.last)
	}

	// Daemon events never keep Run alive, so reschedule unconditionally.
	c.s.PostDaemon(c.interval, c.tick)
}

// writeStreamLine renders one JSONL record by hand: sorted keys and
// shortest-round-trip floats, so the byte stream is a deterministic
// function of the (deterministic) values.
func (c *Collector) writeStreamLine(t float64, names []string, vals map[string]float64) {
	var b strings.Builder
	if !c.wroteHeader {
		b.WriteString(`{"timeline":"`)
		b.WriteString(c.Label)
		b.WriteString(`","interval_s":`)
		b.WriteString(strconv.FormatFloat(c.interval.Seconds(), 'g', -1, 64))
		b.WriteString("}\n")
		c.wroteHeader = true
	}
	b.WriteString(`{"t":`)
	b.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
	b.WriteString(`,"v":{`)
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('"')
		b.WriteString(n)
		b.WriteString(`":`)
		b.WriteString(strconv.FormatFloat(vals[n], 'g', -1, 64))
	}
	b.WriteString("}}\n")
	if _, err := io.WriteString(c.stream, b.String()); err != nil {
		c.streamErr = fmt.Errorf("timeline: stream: %w", err)
	}
}

// Spark renders values as a unicode sparkline scaled to max (computed
// from the data when max <= 0).
func Spark(vals []float64, max float64) string {
	const ramp = "▁▂▃▄▅▆▇█"
	levels := []rune(ramp)
	if max <= 0 {
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(levels)-1))
			if i < 0 {
				i = 0
			}
			if i >= len(levels) {
				i = len(levels) - 1
			}
		}
		b.WriteRune(levels[i])
	}
	return b.String()
}
