package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestHistBucketBoundaries(t *testing.T) {
	t.Parallel()
	// Bucket 0 catches everything <= 1 (and NaN).
	for _, v := range []float64{-5, 0, 0.5, 1, math.NaN()} {
		if got := HistBucket(v); got != 0 {
			t.Fatalf("HistBucket(%v) = %d, want 0", v, got)
		}
	}
	// Exact powers of two land on their own boundary: 2 = 2^(8/8) is
	// bucket 8, 4 is bucket 16, 1024 is bucket 80.
	cases := []struct {
		v    float64
		want int
	}{
		{2, 8},
		{4, 16},
		{1024, 80},
	}
	for _, c := range cases {
		if got := HistBucket(c.v); got != c.want {
			t.Fatalf("HistBucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// A value just past a boundary moves to the next bucket.
	if got := HistBucket(2.0001); got != 9 {
		t.Fatalf("HistBucket(2.0001) = %d, want 9", got)
	}
	// HistUpper inverts the boundary: bucket 8's upper edge is 2, and
	// boundaries grow by 2^(1/8).
	if got := HistUpper(8); math.Abs(got-2) > 1e-12 {
		t.Fatalf("HistUpper(8) = %v, want 2", got)
	}
	ratio := HistUpper(9) / HistUpper(8)
	if math.Abs(ratio-math.Pow(2, 0.125)) > 1e-12 {
		t.Fatalf("bucket spacing ratio %v, want 2^(1/8)", ratio)
	}
	// Boundary values map into their own bucket, up to one step of
	// floating-point slack in log2 (exact at powers of two, where the
	// boundary is representable).
	for i := 1; i < 100; i++ {
		got := HistBucket(HistUpper(i))
		if got != i && got != i+1 {
			t.Fatalf("HistBucket(HistUpper(%d)) = %d", i, got)
		}
		if i%8 == 0 && got != i {
			t.Fatalf("HistBucket(HistUpper(%d)) = %d at an exact power of two", i, got)
		}
	}
	// Huge values clamp to the last bucket instead of overflowing.
	if got := HistBucket(math.MaxFloat64); got != histBuckets-1 {
		t.Fatalf("HistBucket(MaxFloat64) = %d, want %d", got, histBuckets-1)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	t.Parallel()
	h := NewHistogram()
	if h.P50() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("mean = %v, want 500.5", got)
	}
	// The log-scale buckets bound relative error by the 2^(1/8) ≈ 9%
	// spacing; allow 10%.
	check := func(name string, got, want float64) {
		t.Helper()
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Fatalf("%s = %v, want within 10%% of %v", name, got, want)
		}
	}
	check("p50", h.P50(), 500)
	check("p95", h.P95(), 950)
	check("p99", h.P99(), 990)
	// Quantile tails clamp to the observed extremes.
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %v, want exactly max", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v, want exactly min", got)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	t.Parallel()
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(3_000_000) // 3 ms in ns
	}
	// With every observation identical, all quantiles clamp to it.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 3_000_000 {
			t.Fatalf("Quantile(%v) = %v, want 3000000", q, got)
		}
	}
}

func TestRegistry(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Histogram("h").Observe(10)
	if r.Histogram("h").N() != 1 {
		t.Fatal("histogram not shared by name")
	}
	r.Histogram("a").Observe(1)
	out := r.Render()
	if !strings.HasPrefix(out, "hist    a ") || !strings.Contains(out, "\nhist    h ") {
		t.Fatalf("Render not one sorted hist line per histogram:\n%s", out)
	}
	if names := r.HistogramNames(); len(names) != 2 || names[0] != "a" || names[1] != "h" {
		t.Fatalf("HistogramNames = %v, want [a h]", names)
	}
}
