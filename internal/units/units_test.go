package units

import (
	"testing"
	"testing/quick"
)

func TestBytesString(t *testing.T) {
	t.Parallel()
	cases := []struct {
		b    Bytes
		want string
	}{
		{0, "0B"},
		{999, "999B"},
		{1500, "1.50KB"},
		{250 * GB, "250.00GB"},
		{536 * TB, "536.00TB"},
		{1 * PB, "1.00PB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestBytesIEC(t *testing.T) {
	t.Parallel()
	cases := []struct {
		b    Bytes
		want string
	}{
		{1024, "1.00KiB"},
		{1 * MiB, "1.00MiB"},
		{256 * KiB, "256.00KiB"},
		{3 * GiB, "3.00GiB"},
	}
	for _, c := range cases {
		if got := c.b.IEC(); got != c.want {
			t.Errorf("%d.IEC() = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   string
		want Bytes
	}{
		{"0", 0},
		{"42", 42},
		{"42B", 42},
		{"1KB", KB},
		{"1KiB", KiB},
		{"256kib", 256 * KiB},
		{"1.5GB", Bytes(1.5e9)},
		{"4M", 4 * MB},
		{"2 TiB", 2 * TiB},
		{"0.5PB", Bytes(5e14)},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	t.Parallel()
	for _, in := range []string{"", "abc", "1XB", "..5GB"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", in)
		}
	}
}

func TestRateConversions(t *testing.T) {
	t.Parallel()
	if got := (10 * Gbps).Bytes(); got != 1.25*GBps {
		t.Errorf("10Gb/s = %v B/s, want 1.25GB/s", got)
	}
	if got := (720 * MBps).Bits(); got != 5760*Mbps {
		t.Errorf("720MB/s = %v b/s, want 5.76Gb/s", got)
	}
}

func TestRateStrings(t *testing.T) {
	t.Parallel()
	if got := (8.96 * Gbps).String(); got != "8.96Gb/s" {
		t.Errorf("got %q", got)
	}
	if got := (720 * MBps).String(); got != "720.00MB/s" {
		t.Errorf("got %q", got)
	}
	if got := (6 * GBps).String(); got != "6.00GB/s" {
		t.Errorf("got %q", got)
	}
}

// Property: bits<->bytes conversion round-trips.
func TestPropertyRateRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(raw uint32) bool {
		r := BitsPerSec(raw)
		back := r.Bytes().Bits()
		d := float64(back - r)
		return d < 1e-6 && d > -1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: String of a parsed canonical decimal value stays in the same
// unit band (sanity of formatting thresholds).
func TestPropertyParseFormatsDontPanic(t *testing.T) {
	t.Parallel()
	f := func(v uint32, unit uint8) bool {
		units := []Bytes{1, KB, MB, GB, TB, KiB, MiB, GiB}
		b := Bytes(v%100000) * units[int(unit)%len(units)]
		_ = b.String()
		_ = b.IEC()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
