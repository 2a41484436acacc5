package main

import (
	"testing"
	"time"
)

// TestCheckRTT: a negative -rtt is a usage error (exit 2), not a panic
// when the WAN link is built with a negative delay.
func TestCheckRTT(t *testing.T) {
	for _, tc := range []struct {
		rtt time.Duration
		ok  bool
	}{
		{80 * time.Millisecond, true},
		{0, true},
		{-5 * time.Millisecond, false},
	} {
		if err := checkRTT(tc.rtt); (err == nil) != tc.ok {
			t.Errorf("checkRTT(%v) = %v, want ok=%v", tc.rtt, err, tc.ok)
		}
	}
}
