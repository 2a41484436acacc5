package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins the report and the JSONL trace of whole gfssim runs to
// sha256 digests. Kernel and solver changes must not move a single event:
// any change to dispatch order, process hand-off, rate allocation or the
// model shows up here as a digest mismatch. A change that is meant to
// alter the output re-records the digests and says why.
//
//   - production, 4 nodes: the full file-system stack on a LAN farm.
//   - failover: WAN reads through an NSD server crash over a 6 ms path,
//     where slow-start window caps bind (the water fill's cap sweep).
//   - anl: the §5 remote mount. One client seeds 32 files first, driving
//     write-behind across 32 inodes in one page pool.
//   - failover-stats: the failover run with periodic mmpmon snapshots and
//     a timeline ring, pinning every mmpmon line kind the writer emits
//     (fs_io_s, io_s, nsd, resource, sim, solver, hist, rate, op_lat).
//   - metastorm-shards-stats: a storm on four token shards with -stats,
//     pinning the per-shard io_s rows, the token, rpc and net counters
//     and the rpc.in_flight line.
//   - production-gather-stats: gathered flushes, wide token grants and
//     the NSD elevator with -stats, pinning their counter lines.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name          string
		args          []string
		report, jsonl string
	}{
		{"production", []string{"-exp", "production", "-nodes", "4"},
			"13b5921d658de74f271f85cf33b822fd51614e75f7c1ad78a797ef7ca2802644",
			"3c467b14af0e89869ea8bece3ed4157f866ba468b7238b1ecfb4263676a68369"},
		{"failover", []string{"-exp", "failover"},
			"8e375daed6157087df6ac5ec531b095f6302d3e63be28b609a170d8e4c7855b3",
			"3adf3a0d3f2b13f8c06b655a9ffb548bfa74059fa17d04e9bee99e500a4ac068"},
		{"anl", []string{"-exp", "anl"},
			"fafe201e0cf70fd03e53df13953a176269a79de4f55a9c2bad8bc98f1ecf7d3a",
			"4939be9e4946b63286328a204463bd1a39c35afc0bdeef59a4784a4e18882290"},
		{"failover-stats", []string{"-exp", "failover", "-stats", "-interval", "5s", "-timeline-ring", "8"},
			"e1738a01c6ba2c4732fa94284b9b115f5698618d194ccc1d38273fc926e19022",
			"3adf3a0d3f2b13f8c06b655a9ffb548bfa74059fa17d04e9bee99e500a4ac068"},
		{"metastorm-shards-stats", []string{"-exp", "metastorm", "-token-shards", "4", "-stats"},
			"ebb0cd66cb759cc78eb5dc672211ae36a88081017772cdf86154e8fa8ed9321f",
			"ba420ae09c2d0ea9a17e0c6aa0a6751dfe4062dc4290e4957067375f8ef314c9"},
		{"production-gather-stats", []string{"-exp", "production", "-nodes", "4", "-gather", "-wide-tokens", "-stats"},
			"ddd214339c51b1b474d1185bf719ddfed12034edc99f923f25f0107d419b1d24",
			"115d8b9ea78ca0a0eab60ca72af0618845abf54c3e1258d56cae3693ada11dcc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jsonl := filepath.Join(dir, "t.jsonl")
			report := filepath.Join(dir, "report.txt")
			out, err := os.Create(report)
			if err != nil {
				t.Fatal(err)
			}
			stdout, args, cmdline := os.Stdout, os.Args, flag.CommandLine
			defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, args, cmdline }()
			os.Stdout = out
			os.Args = append(append([]string{"gfssim"}, tc.args...), "-jsonl", jsonl)
			flag.CommandLine = flag.NewFlagSet("gfssim", flag.ContinueOnError)
			main()
			os.Stdout = stdout
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}

			for _, f := range []struct{ path, digest string }{
				{report, tc.report},
				{jsonl, tc.jsonl},
			} {
				b, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != f.digest {
					t.Errorf("%s: digest %s, want %s (%d bytes)", filepath.Base(f.path), got, f.digest, len(b))
				}
			}
		})
	}
}
