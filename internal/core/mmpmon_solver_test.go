package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gfs/internal/netsim"
)

// TestMmpmonSolverRoundTrip checks that ParseMmpmon recovers the solve
// count, the re-solved conns and every non-empty frontier bucket of a
// WriteMmpmonSolver line, and reads a line from an older writer, which
// also emitted the always-zero tolerance-solver keys, to the same counts
// without taking its boundary_links key for a histogram bucket.
func TestMmpmonSolverRoundTrip(t *testing.T) {
	t.Parallel()
	var st netsim.SolverStats
	st.FullSolves = 86
	st.RegionConns = 1024
	st.FrontierHist[0] = 2
	st.FrontierHist[5] = 84
	var buf bytes.Buffer
	WriteMmpmonSolver(&buf, st)
	want := MmpmonSolver{Full: 86, RegionConns: 1024, FrontierHist: map[int]int64{0: 2, 5: 84}}
	for _, line := range []string{
		buf.String(),
		"mmpmon solver full 86 local 0 placements 0 periodic 0 escalations 0 expansions 0 " +
			"region_conns 1024 boundary_links 0 b0 2 b5 84\n",
	} {
		parsed, err := ParseMmpmon(strings.NewReader(line))
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if len(parsed.Solvers) != 1 || !reflect.DeepEqual(parsed.Solvers[0], want) {
			t.Errorf("%q parsed to %+v, want [%+v]", line, parsed.Solvers, want)
		}
	}
}
