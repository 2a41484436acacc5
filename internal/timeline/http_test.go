package timeline

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"gfs/internal/sim"
)

// TestExporterServesLatestWindowAndHistory: an exporter attached to a
// collector that ticked twice serves the second window as Prometheus
// text on /metrics and both windows of every series as JSON on
// /timeline.
func TestExporterServesLatestWindowAndHistory(t *testing.T) {
	t.Parallel()
	s := sim.New()
	cum := new(float64)
	s.Post(sim.KindOther, sim.Second/2, func() { *cum += 10 })
	s.Post(sim.KindOther, 3*sim.Second/2, func() { *cum += 30 })
	s.Post(sim.KindOther, 2*sim.Second, func() {}) // keeps the second window open
	c := New(s, sim.Second)
	c.Label = "sim0"
	c.AddSource(func(tk *Tick) {
		tk.Rate("bytes", "B/s", *cum)
		tk.Gauge("depth", "reqs", 7)
	})
	e := NewExporter()
	e.Attach(c)
	s.Run()
	if c.Ticks() != 2 {
		t.Fatalf("collector ticked %d times, want 2", c.Ticks())
	}

	get := func(path, wantType string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		if got := rec.Header().Get("Content-Type"); got != wantType {
			t.Errorf("GET %s: Content-Type %q, want %q", path, got, wantType)
		}
		return rec.Body.String()
	}

	wantMetrics := `# HELP gfs_timeline Latest per-interval timeline value for each series.
# TYPE gfs_timeline gauge
gfs_timeline{run="sim0",series="bytes",unit="B/s"} 30
gfs_timeline{run="sim0",series="depth",unit="reqs"} 7
# HELP gfs_timeline_sim_seconds Virtual time of the latest closed window.
# TYPE gfs_timeline_sim_seconds gauge
gfs_timeline_sim_seconds 2
`
	if got := get("/metrics", "text/plain; version=0.0.4"); got != wantMetrics {
		t.Errorf("/metrics:\n%s\nwant:\n%s", got, wantMetrics)
	}

	var hist struct {
		Run    string         `json:"run"`
		T      float64        `json:"t"`
		Series []exportSeries `json:"series"`
	}
	if err := json.Unmarshal([]byte(get("/timeline", "application/json")), &hist); err != nil {
		t.Fatal(err)
	}
	want := []exportSeries{
		{Name: "bytes", Unit: "B/s", T: []float64{1, 2}, V: []float64{10, 30}},
		{Name: "depth", Unit: "reqs", T: []float64{1, 2}, V: []float64{7, 7}},
	}
	if hist.Run != "sim0" || hist.T != 2 || !reflect.DeepEqual(hist.Series, want) {
		t.Errorf("/timeline = %+v, want run sim0 at t=2 with %+v", hist, want)
	}
}
