package metrics

import (
	"fmt"
	"math"
)

// histSubBits is the log2 of buckets per octave: 8 buckets per power of
// two, so bucket boundaries grow by 2^(1/8) ≈ 9% — fine enough that a
// reported quantile overstates the true value by at most one boundary
// step, while the whole histogram stays a fixed 513-slot array.
const histSubBits = 3

// histBuckets spans [1, 2^64) at 2^(1/8) spacing, plus bucket 0 for
// values <= 1.
const histBuckets = 64<<histSubBits + 1

// Histogram is a log-scale histogram for latency-like values (virtual
// nanoseconds, queue depths, sizes). It never stores raw observations,
// so it is safe to feed from per-RPC and per-block hot paths of
// arbitrarily long runs; N, Sum, Mean, Min and Max are exact.
type Histogram struct {
	counts   [histBuckets]uint64
	n        uint64
	sum      float64
	min, max float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// HistBucket returns the bucket index recording value v.
func HistBucket(v float64) int {
	if v <= 1 || math.IsNaN(v) {
		return 0
	}
	idx := int(math.Ceil(math.Log2(v) * (1 << histSubBits)))
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// HistUpper returns the upper boundary of bucket i: 2^(i/8). Values v
// with HistUpper(i-1) < v <= HistUpper(i) land in bucket i.
func HistUpper(i int) float64 {
	return math.Pow(2, float64(i)/(1<<histSubBits))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[HistBucket(v)]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank over the
// bucket boundaries. The result is the upper boundary of the bucket
// containing the rank, clamped to the exact observed min/max, so the
// relative error is bounded by the ~9% bucket spacing.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := HistUpper(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50 returns the median estimate.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the 95th-percentile estimate.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the 99th-percentile estimate.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// P999 returns the 99.9th-percentile estimate — the tail the million-user
// scaling work is judged on; below ~1000 observations it coincides with
// Max.
func (h *Histogram) P999() float64 { return h.Quantile(0.999) }

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%.0f p95=%.0f p99=%.0f p999=%.0f max=%.0f",
		h.n, h.Mean(), h.P50(), h.P95(), h.P99(), h.P999(), h.Max())
}
