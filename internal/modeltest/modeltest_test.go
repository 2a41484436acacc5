package modeltest

import (
	"testing"

	"gfs/internal/sim"
)

func report(t *testing.T, divs []Divergence) {
	t.Helper()
	for _, d := range divs {
		t.Errorf("divergence: %s", d)
	}
}

// TestRandomWorkload model-checks the full stack against the flat
// reference across several seeds: 4 concurrent clients, each running a
// random create/read/write/truncate/rename/remove/sync program, then a
// cold-cache verifier. Zero divergences allowed.
func TestRandomWorkload(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, Run(Config{Seed: seed, Clients: 4, Ops: 100}))
		})
	}
}

// TestRandomWorkloadServerCrash reruns the workload with an NSD server
// dying mid-run for 2 s. The retry machinery must ride it out: same
// zero-divergence bar, and every operation still has to succeed.
func TestRandomWorkloadServerCrash(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			// The undisturbed workload runs ~290 ms of virtual time, so a
			// crash at 100 ms with a 2 s outage guarantees most operations
			// execute with NSD server 0 dead and must ride through on
			// retries.
			report(t, Run(Config{
				Seed: seed, Clients: 4, Ops: 100,
				ServerCrashDelay:  100 * sim.Millisecond,
				ServerCrashOutage: 2 * sim.Second,
			}))
		})
	}
}

// TestCrashDurability kills a syncing writer mid-run and checks the
// durability oracle: every byte acked by Sync before the crash is intact
// after the victim's lease expires and its tokens are stolen.
func TestCrashDurability(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, RunCrashDurability(DurabilityConfig{Seed: seed, Clients: 3, Ops: 80}))
		})
	}
}

// TestRandomWorkloadGather reruns the standard seeds with flush
// gathering, batched NSD I/O, the elevator and wide token grants all on.
// The knobs are pure performance machinery: the byte-level oracle and
// the namespace checks must not notice them.
func TestRandomWorkloadGather(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, Run(Config{Seed: seed, Clients: 4, Ops: 100,
				Gather: true, WideTokens: true}))
		})
	}
}

// TestRandomWorkloadGatherServerCrash crashes NSD server 0 mid-run with
// gathering on: a gathered multi-block flush that dies with the server
// must not ack — the pages stay dirty and are re-flushed on retry, so
// the verifier still sees every byte.
func TestRandomWorkloadGatherServerCrash(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, Run(Config{
				Seed: seed, Clients: 4, Ops: 100,
				Gather: true, WideTokens: true,
				ServerCrashDelay:  100 * sim.Millisecond,
				ServerCrashOutage: 2 * sim.Second,
			}))
		})
	}
}

// TestCrashDurabilityGather reruns the Sync-ack oracle with gathering
// on: an acked Sync must survive the client crash even when the flush
// that carried it was a gathered multi-block write.
func TestCrashDurabilityGather(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, RunCrashDurability(DurabilityConfig{Seed: seed, Clients: 3, Ops: 80,
				Gather: true, WideTokens: true}))
		})
	}
}

// TestRandomWorkloadArenaArms runs the standard seeds with gathering on,
// so pages and flush scratch cycle through the page-buffer arena.
// Recycled pages are zeroed on reuse and flush scratch is returned only
// after the server has copied the payload, so the byte oracle must see
// no stale data.
func TestRandomWorkloadArenaArms(t *testing.T) {
	t.Parallel()
	t.Run("arena", func(t *testing.T) {
		for _, seed := range []int64{1, 2, 3} {
			seed := seed
			t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
				report(t, Run(Config{Seed: seed, Clients: 4, Ops: 100, Gather: true}))
			})
		}
	})
}

// TestDeterministicDivergenceFree runs the same seed twice and insists
// both runs are clean — a cheap determinism canary at the package level
// (the byte-level trace diff lives in CI).
func TestDeterministicDivergenceFree(t *testing.T) {
	t.Parallel()
	for i := 0; i < 2; i++ {
		report(t, Run(Config{Seed: 42, Clients: 2, Ops: 60}))
	}
}

// TestRandomWorkloadSharded reruns the standard random workload with the
// metadata/token plane sharded four ways. Sharding is pure performance
// machinery — the byte-level oracle and the namespace checks must come
// out identical to the unsharded runs on the same seeds.
func TestRandomWorkloadSharded(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, Run(Config{Seed: seed, Clients: 4, Ops: 100, Shards: 4}))
		})
	}
}

// TestMetadataStorm model-checks the metadata-heavy profile — small
// files churned through create/stat/rename/remove across deep
// directories — against the flat reference, with and without sharding
// on the same seeds. Zero divergences allowed either way.
func TestMetadataStorm(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 4} {
		shards := shards
		name := "unsharded"
		if shards > 0 {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				seed := seed
				t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
					report(t, Run(Config{Seed: seed, Clients: 4, Ops: 120,
						MetaHeavy: true, Shards: shards}))
				})
			}
		})
	}
}

// TestMetadataStormServerCrash is the unsharded storm-under-outage run.
// It pins the write-behind generation fix: the storm's repeated small
// overwrites land on pages whose flushes sit in long retry against the
// dead server, and a rewrite over an identical dirty interval used to be
// marked clean when the stale flush finally acked — the rewrite never
// reached the media.
func TestMetadataStormServerCrash(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, Run(Config{
				Seed: seed, Clients: 4, Ops: 120,
				MetaHeavy:         true,
				ServerCrashDelay:  100 * sim.Millisecond,
				ServerCrashOutage: 2 * sim.Second,
			}))
		})
	}
}

// TestMetadataStormShardCrash kills NSD server 0 — the home of shard 0 —
// in the middle of a sharded metadata storm. Clients must fall back to
// the coordinator, the coordinator must wait out the (shortened) lease
// and merge the shard's token table into its own, and the run must stay
// divergence-free end to end: lease steal-back under live traffic.
func TestMetadataStormShardCrash(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, Run(Config{
				Seed: seed, Clients: 4, Ops: 120,
				MetaHeavy: true, Shards: 4,
				Lease:             300 * sim.Millisecond,
				ServerCrashDelay:  100 * sim.Millisecond,
				ServerCrashOutage: 2 * sim.Second,
			}))
		})
	}
}

// TestCrashDurabilitySharded reruns the Sync-ack durability oracle with
// the token plane sharded: an acked Sync must survive the client crash
// even when the tokens being stolen live in a shard's table rather than
// the central manager's.
func TestCrashDurabilitySharded(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			report(t, RunCrashDurability(DurabilityConfig{Seed: seed, Clients: 3, Ops: 80,
				Shards: 4}))
		})
	}
}

// TestDeterministicDivergenceFreeSharded is the determinism canary for
// the sharded plane: same seed, same storm, twice — both clean.
func TestDeterministicDivergenceFreeSharded(t *testing.T) {
	t.Parallel()
	for i := 0; i < 2; i++ {
		report(t, Run(Config{Seed: 42, Clients: 2, Ops: 60, MetaHeavy: true, Shards: 4}))
	}
}
