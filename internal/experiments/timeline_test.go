package experiments

import (
	"bytes"
	"strings"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/timeline"
)

// TestTimelineDeterminism streams the whole-stack timeline of two
// identical failover runs and demands byte-identical JSONL — the
// property the CI timeline gate diffs on real binaries.
func TestTimelineDeterminism(t *testing.T) {
	t.Parallel()
	capture := func() (string, *Obs) {
		var buf bytes.Buffer
		o := NewObs(ObsConfig{
			Timeline:         true,
			TimelineInterval: 500 * sim.Millisecond,
			TimelineStream:   &buf,
		})
		RunFailover(smallFailover(Env{Obs: o}))
		if err := o.FlushTimeline(); err != nil {
			t.Fatal(err)
		}
		return buf.String(), o
	}
	s1, o1 := capture()
	s2, _ := capture()
	if s1 != s2 {
		t.Error("timeline JSONL differs between identical failover runs")
	}
	if !strings.HasPrefix(s1, `{"timeline":"sim0","interval_s":0.5}`) {
		t.Fatalf("missing stream header: %.80s", s1)
	}

	// The stream must parse back into the series the collector held.
	dump, err := timeline.ReadJSONL(strings.NewReader(s1))
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(dump.Runs))
	}
	tls := o1.Timelines()
	if len(tls) != 1 {
		t.Fatalf("got %d collectors, want 1", len(tls))
	}
	if got, want := len(dump.Runs[0].Names()), len(tls[0].Names()); got != want {
		t.Fatalf("parsed %d series, collector has %d", got, want)
	}
	// The whole stack must be represented: engine, links, NSD servers,
	// clients, token manager.
	for _, prefix := range []string{"engine.", "link.", "nsd.", "client.", "token."} {
		found := false
		for _, n := range dump.Runs[0].Names() {
			if strings.HasPrefix(n, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q series in timeline: %v", prefix, dump.Runs[0].Names()[:5])
		}
	}
}

// TestTimelineRingBounded checks ring mode: retained points stay capped
// at the ring size however many windows the run closes, while Total
// keeps counting.
func TestTimelineRingBounded(t *testing.T) {
	t.Parallel()
	o := NewObs(ObsConfig{
		Timeline:         true,
		TimelineInterval: 100 * sim.Millisecond,
		TimelineRing:     8,
	})
	RunFailover(smallFailover(Env{Obs: o}))

	tl := o.Timelines()[0]
	if tl.Ticks() <= 8 {
		t.Fatalf("only %d windows closed; test needs more than the ring", tl.Ticks())
	}
	for _, se := range tl.Series() {
		if se.Len() > 8 {
			t.Fatalf("series %s retains %d points, ring is 8", se.Name, se.Len())
		}
	}
	// At least the always-on engine series must have seen every window.
	if se := tl.Get("engine.events_per_s"); se == nil || se.Total() != tl.Ticks() {
		t.Fatalf("engine series total %v, want %d", se, tl.Ticks())
	}
}

// TestTimelineSnapshotRates checks the Stats+Timeline integration: a
// final snapshot carries "mmpmon rate" lines from the last closed
// window.
func TestTimelineSnapshotRates(t *testing.T) {
	t.Parallel()
	o := NewObs(ObsConfig{
		Stats:            true,
		Timeline:         true,
		TimelineInterval: sim.Second,
	})
	RunFailover(smallFailover(Env{Obs: o}))

	var buf bytes.Buffer
	o.Snapshot(&buf)
	if !strings.Contains(buf.String(), "mmpmon rate nsd.") {
		t.Fatal("final snapshot carries no mmpmon rate lines")
	}
}
