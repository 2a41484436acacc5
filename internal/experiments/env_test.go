package experiments

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"gfs/internal/units"
)

// smallProduction is the production scaling run at 4 nodes with a
// quarter of the default bytes per node.
func smallProduction(env Env) ProductionConfig {
	cfg := DefaultProductionConfig()
	cfg.NodeCounts = []int{4}
	cfg.SizePer = 256 * units.MiB
	cfg.Env = env
	return cfg
}

// TestEnvRunsConcurrently runs a traced DEISA run and a traced
// production run side by side, each in its own Env, and demands byte for
// byte the report and JSONL each produces when run alone: runs share no
// state.
func TestEnvRunsConcurrently(t *testing.T) {
	t.Parallel()
	runs := []func(Env) *Result{
		func(env Env) *Result {
			cfg := DefaultDEISAConfig()
			cfg.Sites = []string{"cineca", "fzj", "rzg"}
			cfg.Servers = 4
			cfg.FileSize = 512 * units.MiB
			cfg.Env = env
			return RunDEISA(cfg)
		},
		func(env Env) *Result { return RunProductionScaling(smallProduction(env)) },
	}
	type output struct {
		report string
		jsonl  string // sha256 of the JSONL export
		err    error
	}
	capture := func(i int) output {
		o := NewObs(ObsConfig{Trace: true})
		res := runs[i](Env{Obs: o})
		h := sha256.New()
		err := o.Tracer.WriteJSONL(h)
		return output{res.String(), fmt.Sprintf("%x", h.Sum(nil)), err}
	}

	alone := make([]output, len(runs))
	for i := range runs {
		alone[i] = capture(i)
	}
	together := make([]output, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			together[i] = capture(i)
		}(i)
	}
	wg.Wait()

	for i := range runs {
		a, b := alone[i], together[i]
		if a.err != nil || b.err != nil {
			t.Fatalf("run %d: JSONL export: %v / %v", i, a.err, b.err)
		}
		if a.report != b.report {
			t.Errorf("run %d: concurrent report differs from sequential:\n%s\n---\n%s", i, a.report, b.report)
		}
		if a.jsonl != b.jsonl {
			t.Errorf("run %d: concurrent JSONL sha256 %s, sequential %s", i, b.jsonl, a.jsonl)
		}
	}
}
