package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gfs/internal/sim"
	"gfs/internal/units"
)

func TestRateMonitorBinning(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := NewRateMonitor(s, "link", sim.Second)
	s.Post(sim.KindOther, 500*sim.Millisecond, func() { m.Record(100 * units.MB) })
	s.Post(sim.KindOther, 1500*sim.Millisecond, func() { m.Record(200 * units.MB) })
	s.Post(sim.KindOther, 1700*sim.Millisecond, func() { m.Record(100 * units.MB) })
	s.Run()
	ser := m.SeriesMBps()
	if ser.Len() != 2 {
		t.Fatalf("bins = %d, want 2", ser.Len())
	}
	if ser.Points[0].Y != 100 {
		t.Errorf("bin0 = %v MB/s, want 100", ser.Points[0].Y)
	}
	if ser.Points[1].Y != 300 {
		t.Errorf("bin1 = %v MB/s, want 300", ser.Points[1].Y)
	}
	if m.Total() != 400*units.MB {
		t.Errorf("total = %v, want 400MB", m.Total())
	}
}

func TestRateMonitorSpread(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := NewRateMonitor(s, "x", sim.Second)
	s.Post(sim.KindOther, 2*sim.Second, func() {
		// 300 MB over [0.5s, 3.5s): 1/6 in bin0, 1/3 in bin1, 1/3 in bin2, 1/6 in bin3.
		m.RecordSpread(300*units.MB, 500*sim.Millisecond, 3500*sim.Millisecond)
	})
	s.Run()
	ser := m.SeriesMBps()
	want := []float64{50, 100, 100, 50}
	if ser.Len() != len(want) {
		t.Fatalf("bins = %d, want %d", ser.Len(), len(want))
	}
	for i, w := range want {
		if math.Abs(ser.Points[i].Y-w) > 1e-6 {
			t.Errorf("bin%d = %v, want %v", i, ser.Points[i].Y, w)
		}
	}
}

func TestRateMonitorPeakAndGbps(t *testing.T) {
	t.Parallel()
	s := sim.New()
	m := NewRateMonitor(s, "x", sim.Second)
	s.Post(sim.KindOther, sim.Second/2, func() { m.Record(units.Bytes(1.25e9)) }) // 10 Gb in one second
	s.Run()
	if got := m.PeakRate(); got != 1.25*units.GBps {
		t.Errorf("peak = %v, want 1.25GB/s", got)
	}
	g := m.SeriesGbps()
	if math.Abs(g.Points[0].Y-10) > 1e-9 {
		t.Errorf("Gbps bin = %v, want 10", g.Points[0].Y)
	}
}

// Property: RecordSpread conserves bytes across bins.
func TestPropertySpreadConservesBytes(t *testing.T) {
	t.Parallel()
	f := func(nRaw uint32, fromRaw, spanRaw uint16) bool {
		s := sim.New()
		m := NewRateMonitor(s, "x", sim.Second)
		n := units.Bytes(nRaw)
		from := sim.Time(fromRaw) * sim.Millisecond
		to := from + sim.Time(spanRaw)*sim.Millisecond
		s.Post(sim.KindOther, 100*sim.Second, func() { m.RecordSpread(n, from, to) })
		s.Run()
		sum := 0.0
		for _, p := range m.SeriesMBps().Points {
			sum += p.Y * 1e6 // back to bytes (1s bins)
		}
		return math.Abs(sum-float64(n)) < 1e-3*math.Max(1, float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesStats(t *testing.T) {
	t.Parallel()
	s := &Series{Name: "s"}
	for i, y := range []float64{1, 5, 3, 9, 7} {
		s.Add(float64(i), y)
	}
	if s.MaxY() != 9 || s.MinY() != 1 {
		t.Errorf("max/min = %v/%v", s.MaxY(), s.MinY())
	}
	if s.MeanY() != 5 {
		t.Errorf("mean = %v, want 5", s.MeanY())
	}
	if got := s.SustainedY(1, 3); got != (5+3+9)/3.0 {
		t.Errorf("sustained = %v", got)
	}
}

func TestSeriesCSV(t *testing.T) {
	t.Parallel()
	s := &Series{Name: "r", XLabel: "t", YLabel: "MB/s"}
	s.Add(0, 1.5)
	s.Add(1, 2.5)
	got := s.CSV()
	want := "t,MB/s\n0,1.5\n1,2.5\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestMergeCSV(t *testing.T) {
	t.Parallel()
	a := &Series{Name: "read"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := &Series{Name: "write"}
	b.Add(1, 5)
	b.Add(3, 15)
	got := MergeCSV("nodes", a, b)
	if !strings.HasPrefix(got, "nodes,read,write\n") {
		t.Fatalf("header wrong: %q", got)
	}
	if !strings.Contains(got, "1,10,5\n") {
		t.Errorf("row 1 wrong: %q", got)
	}
	if !strings.Contains(got, "2,20,\n") {
		t.Errorf("row 2 wrong: %q", got)
	}
	if !strings.Contains(got, "3,,15\n") {
		t.Errorf("row 3 wrong: %q", got)
	}
}

func TestSummary(t *testing.T) {
	t.Parallel()
	sm := NewSummary("lat")
	for _, v := range []float64{4, 1, 3, 2, 5} {
		sm.Observe(v)
	}
	if sm.N() != 5 || sm.Mean() != 3 || sm.Min() != 1 || sm.Max() != 5 {
		t.Errorf("summary stats wrong: %v", sm)
	}
	if got := sm.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := sm.Stddev(); math.Abs(got-math.Sqrt(2)) > 1e-9 {
		t.Errorf("stddev = %v", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	t.Parallel()
	sm := NewSummary("e")
	if sm.Mean() != 0 || sm.Min() != 0 || sm.Max() != 0 || sm.Quantile(0.9) != 0 {
		t.Error("empty summary should return zeros")
	}
}

func TestChartRender(t *testing.T) {
	t.Parallel()
	s := &Series{Name: "r", XLabel: "time (s)", YLabel: "MB/s"}
	for i := 0; i < 50; i++ {
		s.Add(float64(i), 700*(1-math.Exp(-float64(i)/5)))
	}
	out := NewChart("Fig 2").Add(s).Render()
	if !strings.Contains(out, "Fig 2") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "*") {
		t.Error("missing data glyphs")
	}
	if !strings.Contains(out, "MB/s") {
		t.Error("missing y label")
	}
}

func TestChartEmpty(t *testing.T) {
	t.Parallel()
	out := NewChart("none").Render()
	if !strings.Contains(out, "(no data)") {
		t.Errorf("empty chart output: %q", out)
	}
}

func TestChartLegendMultiSeries(t *testing.T) {
	t.Parallel()
	a := &Series{Name: "read"}
	a.Add(0, 1)
	b := &Series{Name: "write"}
	b.Add(0, 2)
	out := NewChart("x").Add(a).Add(b).Render()
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "read") || !strings.Contains(out, "write") {
		t.Errorf("legend missing: %q", out)
	}
}

func TestTable(t *testing.T) {
	t.Parallel()
	out := Table([]string{"metric", "paper", "measured"},
		[][]string{{"peak Gb/s", "8.96", "8.7"}})
	if !strings.Contains(out, "metric") || !strings.Contains(out, "8.96") {
		t.Errorf("table output: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("table lines = %d, want 3", len(lines))
	}
}
