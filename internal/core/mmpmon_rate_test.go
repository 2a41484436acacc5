package core

import (
	"bytes"
	"strings"
	"testing"

	"gfs/internal/timeline"
)

// TestMmpmonRateRoundTrip checks that the "mmpmon rate" lines a
// timeline window renders are recovered exactly by ParseMmpmon — the
// scraper contract the rate plane adds to the snapshot format.
func TestMmpmonRateRoundTrip(t *testing.T) {
	t.Parallel()
	snap := timeline.Snapshot{
		T:     2,
		Names: []string{"link.wan.MBps", "nsd.srv0.read_MBps", "token.fs.waiting"},
		Values: map[string]float64{
			"link.wan.MBps":      1157.70464,
			"nsd.srv0.read_MBps": 0.5,
			"token.fs.waiting":   3,
		},
		Units: map[string]string{
			"link.wan.MBps":      "MB/s",
			"nsd.srv0.read_MBps": "MB/s",
			// token.fs.waiting has no unit: rendered as "-"
		},
	}
	var buf bytes.Buffer
	WriteMmpmonRates(&buf, snap)

	parsed, err := ParseMmpmon(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Warnings) != 0 {
		t.Fatalf("rate lines produced warnings: %v", parsed.Warnings)
	}
	rates := parsed.Kind("rate")
	if len(rates) != 3 {
		t.Fatalf("got %d rates, want 3: %+v", len(rates), rates)
	}
	for i, want := range []struct {
		name, unit string
		value      float64
	}{
		{"link.wan.MBps", "MB/s", 1157.70464},
		{"nsd.srv0.read_MBps", "MB/s", 0.5},
		{"token.fs.waiting", "-", 3},
	} {
		r := rates[i]
		if r.Name != want.name || r.Args[0] != want.unit || r.Float("value") != want.value {
			t.Errorf("rate %d = %+v, want %+v", i, r, want)
		}
	}
}

// TestMmpmonRateForwardCompat checks that a malformed or future rate
// line degrades to a warning instead of a parse failure.
func TestMmpmonRateForwardCompat(t *testing.T) {
	t.Parallel()
	in := "mmpmon rate only.three.fields\n" +
		"mmpmon rate x MB/s notanumber\n" +
		"mmpmon rate good MB/s 1.5\n"
	parsed, err := ParseMmpmon(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rates := parsed.Kind("rate"); len(rates) != 1 || rates[0].Name != "good" {
		t.Fatalf("rates %+v, want only the well-formed line", rates)
	}
	if len(parsed.Warnings) != 2 {
		t.Fatalf("warnings %v, want 2 (bad field count, bad value)", parsed.Warnings)
	}
}
