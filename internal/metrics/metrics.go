// Package metrics collects measurements from simulation runs and renders
// them as the time series, tables and ASCII charts used to regenerate the
// paper's figures. A RateMonitor bins byte counts into fixed intervals the
// way the SciNet bandwidth monitors binned the SC'04 demo traffic; Series
// holds (x, y) points; Summary accumulates scalar statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// Point is one sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is an ordered list of samples with axis labels.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// MaxY returns the largest Y value (0 for an empty series).
func (s *Series) MaxY() float64 {
	max := 0.0
	for i, p := range s.Points {
		if i == 0 || p.Y > max {
			max = p.Y
		}
	}
	return max
}

// MinY returns the smallest Y value (0 for an empty series).
func (s *Series) MinY() float64 {
	min := 0.0
	for i, p := range s.Points {
		if i == 0 || p.Y < min {
			min = p.Y
		}
	}
	return min
}

// MeanY returns the arithmetic mean of Y values.
func (s *Series) MeanY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum / float64(len(s.Points))
}

// SustainedY returns the mean of Y over samples with X in [from, to] —
// "sustained rate" in the paper's sense (ignoring ramp-up and tail).
func (s *Series) SustainedY(from, to float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.X >= from && p.X <= to {
			sum += p.Y
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CSV renders the series as a two-column CSV with a header row.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,%s\n", csvField(s.XLabel), csvField(s.YLabel))
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g,%g\n", p.X, p.Y)
	}
	return b.String()
}

func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// MergeCSV renders several series sharing an X axis as one CSV table.
// Series are sampled at the union of X values; missing values are blank.
func MergeCSV(xLabel string, series ...*Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	var b strings.Builder
	b.WriteString(csvField(xLabel))
	for _, s := range series {
		b.WriteString(",")
		b.WriteString(csvField(s.Name))
	}
	b.WriteString("\n")
	for _, x := range sorted {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			b.WriteString(",")
			for _, p := range s.Points {
				if p.X == x {
					fmt.Fprintf(&b, "%g", p.Y)
					break
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RateMonitor accumulates byte counts and bins them into fixed virtual-time
// intervals, producing a rate-versus-time series. Bytes spanning a bin
// boundary are credited to the bin in which they were recorded, which
// matches how link counters are sampled in practice.
type RateMonitor struct {
	sim      *sim.Sim
	name     string
	interval sim.Time
	bins     []float64 // bytes per bin
	total    units.Bytes
	start    sim.Time
}

// NewRateMonitor returns a monitor binning at the given interval.
func NewRateMonitor(s *sim.Sim, name string, interval sim.Time) *RateMonitor {
	if interval <= 0 {
		panic("metrics: non-positive monitor interval")
	}
	return &RateMonitor{sim: s, name: name, interval: interval, start: s.Now()}
}

// Record credits n bytes at the current virtual time.
func (m *RateMonitor) Record(n units.Bytes) {
	if n < 0 {
		panic("metrics: negative byte count")
	}
	idx := int((m.sim.Now() - m.start) / m.interval)
	for len(m.bins) <= idx {
		m.bins = append(m.bins, 0)
	}
	m.bins[idx] += float64(n)
	m.total += n
}

// RecordSpread credits n bytes uniformly over [from, to] virtual time,
// splitting across bins. Used when a transfer's bytes are known to have
// flowed over an interval rather than arriving at an instant.
func (m *RateMonitor) RecordSpread(n units.Bytes, from, to sim.Time) {
	if n < 0 {
		panic("metrics: negative byte count")
	}
	if to < from {
		from, to = to, from
	}
	if from < m.start {
		from = m.start
	}
	if to <= from {
		m.Record(n)
		return
	}
	m.total += n
	total := float64(n)
	span := float64(to - from)
	first := int((from - m.start) / m.interval)
	last := int((to - m.start) / m.interval)
	for len(m.bins) <= last {
		m.bins = append(m.bins, 0)
	}
	for i := first; i <= last; i++ {
		binStart := m.start + sim.Time(i)*m.interval
		binEnd := binStart + m.interval
		lo, hi := binStart, binEnd
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			m.bins[i] += total * float64(hi-lo) / span
		}
	}
}

// Total returns the cumulative bytes recorded.
func (m *RateMonitor) Total() units.Bytes { return m.total }

// Series returns rate-vs-time samples: X in seconds (bin midpoint), Y in
// the units selected by perByte (e.g. 1e6 for MB/s, 0.125e9 for Gb/s —
// pass a divisor of bytes/sec).
func (m *RateMonitor) Series(yLabel string, divisor float64) *Series {
	s := &Series{Name: m.name, XLabel: "time (s)", YLabel: yLabel}
	for i, bytes := range m.bins {
		mid := m.start + sim.Time(i)*m.interval + m.interval/2
		rate := bytes / m.interval.Seconds() // bytes per second
		s.Add(mid.Seconds(), rate/divisor)
	}
	return s
}

// SeriesMBps returns the series in megabytes per second.
func (m *RateMonitor) SeriesMBps() *Series { return m.Series("MB/s", 1e6) }

// SeriesGbps returns the series in gigabits per second.
func (m *RateMonitor) SeriesGbps() *Series { return m.Series("Gb/s", 0.125e9) }

// PeakRate returns the highest per-bin rate in bytes/sec.
func (m *RateMonitor) PeakRate() units.BytesPerSec {
	peak := 0.0
	for _, b := range m.bins {
		r := b / m.interval.Seconds()
		if r > peak {
			peak = r
		}
	}
	return units.BytesPerSec(peak)
}

// Summary accumulates scalar observations (latencies, sizes, counts) and
// reports order statistics.
type Summary struct {
	Name   string
	vals   []float64
	sorted bool
}

// NewSummary returns an empty summary.
func NewSummary(name string) *Summary { return &Summary{Name: name} }

// Observe records one value.
func (s *Summary) Observe(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Summary) N() int { return len(s.vals) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[0]
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	idx := int(math.Ceil(q*float64(len(s.vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.vals) {
		idx = len(s.vals) - 1
	}
	return s.vals[idx]
}

// Stddev returns the population standard deviation.
func (s *Summary) Stddev() float64 {
	if len(s.vals) < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.vals {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s.vals)))
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

func (s *Summary) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.2f min=%.2f p50=%.2f p99=%.2f max=%.2f",
		s.Name, s.N(), s.Mean(), s.Min(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
}
