// Analytics over rate-vs-time series: the quantities the paper eyeballs
// off its figures — how deep a fault dip goes and how fast it recovers
// (Fig. 5), how evenly load spreads across NSD servers, and how far the
// slowest rank lags the pack.
package timeline

import (
	"math"
	"sort"

	"gfs/internal/metrics"
)

// DipReport quantifies a Fig. 5-style outage on a throughput series.
type DipReport struct {
	// Baseline is the mean rate over the pre-fault window.
	Baseline float64
	// Dip is the minimum rate observed during the outage, DipT its time
	// (-1 when the outage window holds no points).
	Dip  float64
	DipT float64
	// OutageMean is the mean rate across the whole outage window — the
	// throughput actually delivered while degraded.
	OutageMean float64
	// RecoverAt is the first window at or after the restart whose rate
	// reaches frac*Baseline; TimeToRecover is how long after the restart
	// that took. Both are -1 when the series never recovers.
	RecoverAt     float64
	TimeToRecover float64
	// Recovered is the mean rate from RecoverAt to the end of the
	// analysis window, and Ratio is Recovered/Baseline — the paper's
	// "ratio 1.00" recovery claim, computed instead of eyeballed.
	Recovered float64
	Ratio     float64
}

// AnalyzeDip measures an outage on pts (time/rate pairs sorted by time,
// such as a figure's rate-vs-time series): the fault lands at faultAt, service returns at restartAt,
// and the analysis stops at end (all in the series' time base).
// Baseline is averaged over [baselineFrom, faultAt); the outage window
// is [faultAt, restartAt); recovery requires a window >= frac*Baseline
// at or after restartAt.
func AnalyzeDip(pts []metrics.Point, baselineFrom, faultAt, restartAt, end, frac float64) DipReport {
	rep := DipReport{
		Baseline:   MeanBetween(pts, baselineFrom, faultAt),
		OutageMean: MeanBetween(pts, faultAt, restartAt),
		RecoverAt:  -1, TimeToRecover: -1, DipT: -1,
	}
	rep.DipT, rep.Dip = MinBetween(pts, faultAt, restartAt)
	threshold := frac * rep.Baseline
	for _, p := range pts {
		if p.X >= restartAt && p.X < end && p.Y >= threshold {
			rep.RecoverAt = p.X
			rep.TimeToRecover = p.X - restartAt
			break
		}
	}
	if rep.RecoverAt >= 0 {
		rep.Recovered = MeanBetween(pts, rep.RecoverAt, end)
	}
	if rep.Baseline > 0 {
		rep.Ratio = rep.Recovered / rep.Baseline
	}
	return rep
}

// DipDepthPct is the dip as a percentage drop below baseline (100 = a
// total stall, 0 = no dip).
func (r DipReport) DipDepthPct() float64 {
	if r.Baseline <= 0 {
		return 0
	}
	d := (1 - r.Dip/r.Baseline) * 100
	if d < 0 {
		return 0
	}
	return d
}

// MeanBetween averages Y over points with X in [from, to).
func MeanBetween(pts []metrics.Point, from, to float64) float64 {
	sum, n := 0.0, 0
	for _, p := range pts {
		if p.X >= from && p.X < to {
			sum += p.Y
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MinBetween returns the time and value of the minimum Y over points
// with X in [from, to), or (-1, 0) when the window is empty.
func MinBetween(pts []metrics.Point, from, to float64) (t, v float64) {
	t, v = -1, 0
	for _, p := range pts {
		if p.X >= from && p.X < to && (t < 0 || p.Y < v) {
			t, v = p.X, p.Y
		}
	}
	return t, v
}

// Imbalance summarizes how unevenly one window's load spreads across a
// set of resources (the per-window NSD server view).
type Imbalance struct {
	N           int
	Max, Mean   float64
	MaxOverMean float64 // 1.0 = perfectly balanced
	CoV         float64 // population stddev / mean
}

// ComputeImbalance measures one window's values across resources.
func ComputeImbalance(vals []float64) Imbalance {
	im := Imbalance{N: len(vals)}
	if len(vals) == 0 {
		return im
	}
	for _, v := range vals {
		im.Mean += v
		if v > im.Max {
			im.Max = v
		}
	}
	im.Mean /= float64(len(vals))
	if im.Mean <= 0 {
		return im
	}
	var ss float64
	for _, v := range vals {
		d := v - im.Mean
		ss += d * d
	}
	im.MaxOverMean = im.Max / im.Mean
	im.CoV = math.Sqrt(ss/float64(len(vals))) / im.Mean
	return im
}

// CoVSeries computes the per-window coefficient of variation across a
// group of series from one collector (times align exactly): the
// NSD-load-imbalance curve, as a figure series. Windows where fewer than
// two series have points are skipped.
func CoVSeries(group []*Series, name string) *metrics.Series {
	acc := map[float64][]float64{}
	for _, se := range group {
		for _, p := range se.Points() {
			acc[p.T] = append(acc[p.T], p.V)
		}
	}
	ts := make([]float64, 0, len(acc))
	for t, vs := range acc {
		if len(vs) >= 2 {
			ts = append(ts, t)
		}
	}
	sort.Float64s(ts)
	out := &metrics.Series{Name: name, XLabel: "time (s)", YLabel: "CoV"}
	for _, t := range ts {
		out.Add(t, ComputeImbalance(acc[t]).CoV)
	}
	return out
}

// Skew summarizes per-rank straggler spread: given one throughput (or
// progress) value per rank, how far does the slowest lag the median?
type Skew struct {
	N                int
	Min, Median, Max float64
	// SlowdownVsMedian is Median/Min — 2.0 means the straggler runs at
	// half the median rate. +Inf when a rank is fully stalled (Min == 0
	// with a nonzero median); 0 for an empty or all-zero input.
	SlowdownVsMedian float64
}

// StragglerSkew measures per-rank spread on one window's rates.
func StragglerSkew(rates []float64) Skew {
	sk := Skew{N: len(rates)}
	if len(rates) == 0 {
		return sk
	}
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	sk.Min, sk.Max = sorted[0], sorted[len(sorted)-1]
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		sk.Median = sorted[mid]
	} else {
		sk.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	switch {
	case sk.Min > 0:
		sk.SlowdownVsMedian = sk.Median / sk.Min
	case sk.Median > 0:
		sk.SlowdownVsMedian = math.Inf(1)
	}
	return sk
}
