package main

import (
	"testing"
	"time"
)

// TestCheckFlags: out-of-range -i, -top and -spark are usage errors
// (exit 2), not slice-bound panics once the first frame draws.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		interval   time.Duration
		top, spark int
		ok         bool
	}{
		{time.Second, 20, 40, true},
		{time.Second, 0, 0, true},
		{0, 20, 40, false},
		{-time.Second, 20, 40, false},
		{time.Second, -3, 40, false},
		{time.Second, 20, -1, false},
	} {
		if err := checkFlags(tc.interval, tc.top, tc.spark); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %d, %d) = %v, want ok=%v", tc.interval, tc.top, tc.spark, err, tc.ok)
		}
	}
}
