package timeline

import (
	"math"
	"testing"

	"gfs/internal/metrics"
)

// fig5 builds a synthetic dip: 10 units/s baseline, collapse to ~0
// during [5,8), two ramp windows, then full recovery.
func fig5() []metrics.Point {
	var pts []metrics.Point
	for t := 1.0; t <= 20; t++ {
		v := 10.0
		switch {
		case t >= 5 && t < 8:
			v = 0.5
		case t == 8:
			v = 4 // ramp window below the 90% threshold
		}
		pts = append(pts, metrics.Point{X: t, Y: v})
	}
	return pts
}

func TestAnalyzeDip(t *testing.T) {
	t.Parallel()
	rep := AnalyzeDip(fig5(), 1, 5, 8, 20, 0.9)
	if rep.Baseline != 10 {
		t.Errorf("baseline %v, want 10", rep.Baseline)
	}
	if rep.Dip != 0.5 || rep.DipT != 5 {
		t.Errorf("dip %v at %v, want 0.5 at 5", rep.Dip, rep.DipT)
	}
	if want := 95.0; rep.DipDepthPct() != want {
		t.Errorf("dip depth %v%%, want %v%%", rep.DipDepthPct(), want)
	}
	if rep.OutageMean != 0.5 {
		t.Errorf("outage mean %v, want 0.5", rep.OutageMean)
	}
	// t=8 is the 4-unit ramp window (< 9 = 0.9*baseline); recovery lands
	// on the next window.
	if rep.RecoverAt != 9 || rep.TimeToRecover != 1 {
		t.Errorf("recover at %v (ttr %v), want 9 (ttr 1)", rep.RecoverAt, rep.TimeToRecover)
	}
	if rep.Recovered != 10 || rep.Ratio != 1 {
		t.Errorf("recovered %v ratio %v, want 10 and 1", rep.Recovered, rep.Ratio)
	}
}

func TestAnalyzeDipNeverRecovers(t *testing.T) {
	t.Parallel()
	pts := []metrics.Point{{X: 1, Y: 10}, {X: 2, Y: 10}, {X: 3, Y: 1}, {X: 4, Y: 1}, {X: 5, Y: 1}}
	rep := AnalyzeDip(pts, 1, 3, 4, 6, 0.9)
	if rep.RecoverAt != -1 || rep.TimeToRecover != -1 {
		t.Errorf("recover %v/%v, want -1/-1", rep.RecoverAt, rep.TimeToRecover)
	}
	if rep.Recovered != 0 || rep.Ratio != 0 {
		t.Errorf("recovered %v ratio %v, want zeros", rep.Recovered, rep.Ratio)
	}
}

func TestMeanMinBetween(t *testing.T) {
	t.Parallel()
	pts := []metrics.Point{{X: 1, Y: 4}, {X: 2, Y: 8}, {X: 3, Y: 2}}
	if m := MeanBetween(pts, 1, 3); m != 6 {
		t.Errorf("mean [1,3) = %v, want 6 (half-open: t=3 excluded)", m)
	}
	if m := MeanBetween(pts, 10, 20); m != 0 {
		t.Errorf("empty mean %v, want 0", m)
	}
	if tt, v := MinBetween(pts, 1, 4); tt != 3 || v != 2 {
		t.Errorf("min (%v,%v), want (3,2)", tt, v)
	}
	if tt, _ := MinBetween(pts, 10, 20); tt != -1 {
		t.Errorf("empty min t=%v, want -1", tt)
	}
}

func TestComputeImbalance(t *testing.T) {
	t.Parallel()
	im := ComputeImbalance([]float64{10, 10, 10, 10})
	if im.MaxOverMean != 1 || im.CoV != 0 {
		t.Errorf("balanced: max/mean %v CoV %v", im.MaxOverMean, im.CoV)
	}
	im = ComputeImbalance([]float64{0, 20})
	if im.Mean != 10 || im.Max != 20 || im.MaxOverMean != 2 {
		t.Errorf("skewed: %+v", im)
	}
	if im.CoV != 1 { // population stddev of {0,20} is 10; mean 10
		t.Errorf("CoV %v, want 1", im.CoV)
	}
	if im := ComputeImbalance(nil); im.N != 0 || im.CoV != 0 {
		t.Errorf("empty: %+v", im)
	}
}

func TestCoVSeries(t *testing.T) {
	t.Parallel()
	a, b := &Series{Name: "a"}, &Series{Name: "b"}
	a.add(1, 0)
	b.add(1, 20)
	a.add(2, 10)
	b.add(2, 10)
	a.add(3, 5) // b has no window at t=3: skipped (fewer than 2 series)
	cov := CoVSeries([]*Series{a, b}, "cov")
	if cov.Name != "cov" || cov.YLabel != "CoV" {
		t.Errorf("series %q in %q, want cov in CoV", cov.Name, cov.YLabel)
	}
	pts := cov.Points
	if len(pts) != 2 {
		t.Fatalf("got %d windows, want 2 (singleton window skipped): %v", len(pts), pts)
	}
	if pts[0].X != 1 || pts[0].Y != 1 {
		t.Errorf("window 1: %v, want CoV 1", pts[0])
	}
	if pts[1].X != 2 || pts[1].Y != 0 {
		t.Errorf("window 2: %v, want CoV 0", pts[1])
	}
}

func TestStragglerSkew(t *testing.T) {
	t.Parallel()
	sk := StragglerSkew([]float64{4, 8, 8, 8})
	if sk.Min != 4 || sk.Median != 8 || sk.Max != 8 {
		t.Errorf("skew %+v", sk)
	}
	if sk.SlowdownVsMedian != 2 {
		t.Errorf("slowdown %v, want 2", sk.SlowdownVsMedian)
	}
	if sk := StragglerSkew([]float64{0, 8, 8}); !math.IsInf(sk.SlowdownVsMedian, 1) {
		t.Errorf("stalled rank: slowdown %v, want +Inf", sk.SlowdownVsMedian)
	}
	if sk := StragglerSkew(nil); sk.N != 0 || sk.SlowdownVsMedian != 0 {
		t.Errorf("empty: %+v", sk)
	}
	if sk := StragglerSkew([]float64{0, 0}); sk.SlowdownVsMedian != 0 {
		t.Errorf("all-zero: slowdown %v, want 0", sk.SlowdownVsMedian)
	}
}
