package experiments

import (
	"bytes"
	"strings"
	"testing"

	"gfs/internal/critpath"
	"gfs/internal/sim"
	"gfs/internal/units"
)

// smallFailover is a scaled-down crash drill in env that keeps test
// time short: two servers, two WAN readers, a three-second outage in a
// ten-second run.
func smallFailover(env Env) FailoverConfig {
	return FailoverConfig{
		Env:       env,
		Servers:   2,
		Clients:   2,
		WANRate:   2 * units.Gbps,
		WANDelay:  6 * sim.Millisecond,
		FileSize:  64 * units.MiB,
		BlockSize: 256 * units.KiB,
		Interval:  sim.Second,
		CrashAt:   3 * sim.Second,
		Outage:    3 * sim.Second,
		Duration:  12 * sim.Second,
	}
}

// TestFailoverRecovers checks the dip-and-recovery shape: bandwidth
// collapses during the outage and returns to >= 90% of the pre-fault
// rate after the restart, with no read ever surfacing an error.
func TestFailoverRecovers(t *testing.T) {
	t.Parallel()
	res := RunFailover(smallFailover(conserved(t)))
	pre := res.Headline["pre-fault Gb/s"]
	dip := res.Headline["dip Gb/s"]
	post := res.Headline["post-recovery Gb/s"]
	ratio := res.Headline["recovery ratio"]
	if pre <= 0 {
		t.Fatalf("pre-fault bandwidth %.2f, want > 0", pre)
	}
	if dip >= pre/2 {
		t.Errorf("dip %.2f Gb/s, want < half of pre-fault %.2f", dip, pre)
	}
	if ratio < 0.90 {
		t.Errorf("recovery ratio %.3f (pre %.2f, post %.2f), want >= 0.90", ratio, pre, post)
	}
	if errs := res.Headline["read errors"]; errs != 0 {
		t.Errorf("%v read errors surfaced; retries should have absorbed the outage", errs)
	}
}

// TestFailoverDeterminism runs the same fault plan twice and demands
// byte-identical traces and reports — scripted failures must replay
// exactly. The critical path must also show the new recovery phase:
// blocks stalled on the dead server charge time to retry backoff.
func TestFailoverDeterminism(t *testing.T) {
	t.Parallel()
	capture := func() (jsonl []byte, rendered, attr string) {
		o := NewObs(ObsConfig{Trace: true})
		res := RunFailover(smallFailover(Env{Obs: o}))
		var jb bytes.Buffer
		if err := o.Tracer.WriteJSONL(&jb); err != nil {
			t.Fatal(err)
		}
		return jb.Bytes(), res.String(), critpath.Analyze(o.Tracer).String()
	}
	j1, r1, a1 := capture()
	j2, r2, a2 := capture()
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL trace differs between identical failover runs")
	}
	if r1 != r2 {
		t.Errorf("rendered results differ between identical failover runs:\n%s\n---\n%s", r1, r2)
	}
	if a1 != a2 {
		t.Error("attribution reports differ between identical failover runs")
	}
	if len(j1) == 0 {
		t.Fatal("empty trace")
	}
	if !strings.Contains(a1, "retry") {
		t.Errorf("attribution report missing the retry phase:\n%s", a1)
	}
}
