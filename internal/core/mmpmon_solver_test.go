package core

import (
	"bytes"
	"reflect"
	"strconv"
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
	wantHist := map[int]int64{0: 2, 5: 84}
	for _, line := range []string{
		buf.String(),
		"mmpmon solver full 86 local 0 placements 0 periodic 0 escalations 0 expansions 0 " +
			"region_conns 1024 boundary_links 0 b0 2 b5 84\n",
	} {
		parsed, err := ParseMmpmon(strings.NewReader(line))
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		solvers := parsed.Kind("solver")
		if len(solvers) != 1 {
			t.Fatalf("%q parsed to %+v, want one solver line", line, solvers)
		}
		sv := solvers[0]
		// b<idx> keys are the frontier histogram; boundary_links is not.
		hist := map[int]int64{}
		for k, v := range sv.Fields {
			idx, err1 := strconv.Atoi(strings.TrimPrefix(k, "b"))
			n, err2 := strconv.ParseInt(v, 10, 64)
			if strings.HasPrefix(k, "b") && err1 == nil && err2 == nil {
				hist[idx] = n
			}
		}
		if sv.Int("full") != 86 || sv.Int("region_conns") != 1024 || !reflect.DeepEqual(hist, wantHist) {
			t.Errorf("%q parsed to full %d region_conns %d hist %v, want 86 1024 %v",
				line, sv.Int("full"), sv.Int("region_conns"), hist, wantHist)
		}
	}
}
