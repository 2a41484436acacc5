package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"gfs/internal/critpath"
	"gfs/internal/units"
)

// smallMetastorm is a short storm on four token shards.
func smallMetastorm(env Env) MetastormConfig {
	cfg := DefaultMetastormConfig()
	cfg.Servers = 4
	cfg.Clients = 32
	cfg.Cycles = 4
	cfg.FileSize = units.KiB
	cfg.Shards = []int{4}
	cfg.Env = env
	return cfg
}

// TestAttributionPinned pins the rendered attribution table and the
// op_lat rows of four traced workloads to sha256 digests. Attribution
// refactors must not move a single nanosecond of any phase or quantile.
func TestAttributionPinned(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name         string
		run          func(t *testing.T, env Env)
		table, opLat string
	}{
		{"traceWorkload", traceWorkload,
			"c42fe80c74d92540fb3700b578c27f9f9c71a076407c1b8cf29b8ae4ae37d42f",
			"03f9e1336201a460b9763b245cfcfb7ddd00b0aeab62620c38eb44cb81f5c95b"},
		{"opsWorkload", opsWorkload,
			"d314ff0e6e94db727789830d61ff5f3f25f1415a97ab3de21ffc55e92de3687f",
			"0bf2228b003b5be8ba78dba9ba3e605bf70dcdd3ab23743fabaf999016048c93"},
		{"failover", func(t *testing.T, env Env) {
			cfg := DefaultFailoverConfig()
			cfg.Env = env
			RunFailover(cfg)
		},
			"3e648ed751fcce07781bf576a5b0691b9f89fcfad4de78f35de03306383a3589",
			"90e813773e8efece07f79e7ea940c425885a57740a748c0bd3892a5fcd92994b"},
		{"metastorm-4-shards", func(t *testing.T, env Env) {
			RunMetastorm(smallMetastorm(env))
		},
			"ac3e546ff95050f546e27f4b247a0256fba810577d2c4bf9ec79569e9768b13e",
			"b6be44eb6cc6488937959a48baeb60dc1cdd7630a82ec4c635235e82350c32e4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := NewObs(ObsConfig{Trace: true})
			tc.run(t, Env{Obs: o})
			rep := critpath.Analyze(o.Tracer)
			var opLat strings.Builder
			rep.WriteOpLat(&opLat)
			for _, f := range []struct{ what, out, digest string }{
				{"table", rep.String(), tc.table},
				{"op_lat", opLat.String(), tc.opLat},
			} {
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(f.out))); got != f.digest {
					t.Errorf("%s digest %s, want %s:\n%s", f.what, got, f.digest, f.out)
				}
			}
		})
	}
}
