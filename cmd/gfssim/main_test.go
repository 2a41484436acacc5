package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
			if err := os.WriteFile(report, gfssim(t, append(tc.args, "-jsonl", jsonl)...), 0o644); err != nil {
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

// gfssim runs main in-process with args and returns what it printed.
func gfssim(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout.txt")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout, osArgs, cmdline := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, osArgs, cmdline }()
	os.Stdout = out
	os.Args = append([]string{"gfssim"}, args...)
	flag.CommandLine = flag.NewFlagSet("gfssim", flag.ContinueOnError)
	main()
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// attrTable returns the -attr table gfssim printed for exp: its header,
// latency rows, a blank line and phase rows.
func attrTable(out []byte, exp string) string {
	_, table, _ := strings.Cut(string(out), "-- "+exp+": critical-path attribution --\n")
	lines := strings.SplitAfter(table, "\n")
	blanks := 0
	for n, ln := range lines {
		if ln == "\n" {
			if blanks++; blanks == 2 {
				return strings.Join(lines[:n], "")
			}
		}
	}
	return table
}

// opLatRows returns the mmpmon op_lat rows of out.
func opLatRows(out []byte) string {
	var b strings.Builder
	for _, ln := range strings.SplitAfter(string(out), "\n") {
		if strings.HasPrefix(ln, "mmpmon op_lat ") {
			b.WriteString(ln)
		}
	}
	return b.String()
}

// TestAttributionWithoutRetention: attribution must not depend on what
// the tracer retains. On failover, a 2000-event ring and a streamed
// trace print the same -attr table as a plain -attr run, and streamed
// -stats prints the same op_lat rows as -stats with a buffered trace.
func TestAttributionWithoutRetention(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "s.jsonl")
	want := attrTable(gfssim(t, "-exp", "failover", "-attr"), "failover")
	if !strings.Contains(want, "prefetch_hit") {
		t.Fatalf("plain -attr table looks wrong:\n%s", want)
	}
	for _, args := range [][]string{
		{"-trace-ring", "2000"},
		{"-jsonl-stream", stream},
	} {
		got := attrTable(gfssim(t, append([]string{"-exp", "failover", "-attr"}, args...)...), "failover")
		if got != want {
			t.Errorf("-attr %s table:\n%s\nwant:\n%s", strings.Join(args, " "), got, want)
		}
	}
	wantLat := opLatRows(gfssim(t, "-exp", "failover", "-stats", "-jsonl", filepath.Join(dir, "b.jsonl")))
	if strings.Count(wantLat, "\n") < 2 {
		t.Fatalf("-stats -jsonl printed too few op_lat rows:\n%s", wantLat)
	}
	if got := opLatRows(gfssim(t, "-exp", "failover", "-stats", "-jsonl-stream", stream)); got != wantLat {
		t.Errorf("-stats -jsonl-stream op_lat rows:\n%s\nwant:\n%s", got, wantLat)
	}
}
