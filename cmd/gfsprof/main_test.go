package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gfs/internal/experiments"
)

// TestCheckFlags: a negative -top and a malformed -series glob are usage
// errors, caught before any input is read.
func TestCheckFlags(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		top    int
		series string
		ok     bool
	}{
		{0, "", true},
		{10, "nsd.*MBps", true},
		{-3, "", false},
		{0, "nsd.[", false},
		{0, "[", false},
	} {
		if err := checkFlags(tc.top, tc.series); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %q) = %v, want ok=%v", tc.top, tc.series, err, tc.ok)
		}
	}
}

// TestBadFlagsExitBeforeInput runs the command itself: bad flags exit 2
// with nothing on stdout, even when the input is empty or missing.
func TestBadFlagsExitBeforeInput(t *testing.T) {
	t.Parallel()
	if args, ok := os.LookupEnv("GFSPROF_ARGS"); ok {
		os.Args = append([]string{"gfsprof"}, strings.Split(args, "\n")...)
		flag.CommandLine = flag.NewFlagSet("gfsprof", flag.ExitOnError)
		main()
		return
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-top", "-3", empty},
		{"-timeline", "-series", "nsd.[", empty},
		{"-timeline", "-series", "[", "no-such-file.jsonl"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitBeforeInput$")
		cmd.Env = append(os.Environ(), "GFSPROF_ARGS="+strings.Join(args, "\n"))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 {
			t.Errorf("gfsprof %s: err %v, want exit 2", strings.Join(args, " "), err)
		}
		if stdout.Len() != 0 {
			t.Errorf("gfsprof %s: printed %q before failing", strings.Join(args, " "), stdout.String())
		}
		if !strings.Contains(stderr.String(), "gfsprof: -") {
			t.Errorf("gfsprof %s: stderr %q names no flag", strings.Join(args, " "), stderr.String())
		}
	}
}

// TestPinnedReports pins the attribution table, the -top 10 listing
// and the -oplat rows gfsprof prints for a `gfssim -exp failover -jsonl`
// dump to sha256 digests.
func TestPinnedReports(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "failover.jsonl")
	o := experiments.NewObs(experiments.ObsConfig{Trace: true})
	r, _ := experiments.ByName("failover")
	r.Run(experiments.Env{Obs: o})
	var jb bytes.Buffer
	if err := o.Tracer.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	// The same bytes gfssim -exp failover -jsonl writes (TestGolden).
	if got := fmt.Sprintf("%x", sha256.Sum256(jb.Bytes())); got != "3adf3a0d3f2b13f8c06b655a9ffb548bfa74059fa17d04e9bee99e500a4ac068" {
		t.Fatalf("failover dump digest %s differs from gfssim's", got)
	}
	if err := os.WriteFile(dump, jb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		digest string
	}{
		{nil, "a2f1e7ca79726b6e29dc197f5659bee33dc8627e401e2a8054663c9267208e8f"},
		{[]string{"-top", "10"}, "4e0ba1c760f3c05b51f3f0a23fd07623769237d129d1dc99acd331d65b4e2c0b"},
		{[]string{"-oplat"}, "90e813773e8efece07f79e7ea940c425885a57740a748c0bd3892a5fcd92994b"},
	} {
		outPath := filepath.Join(t.TempDir(), "out.txt")
		out, err := os.Create(outPath)
		if err != nil {
			t.Fatal(err)
		}
		stdout, args, cmdline := os.Stdout, os.Args, flag.CommandLine
		os.Stdout = out
		os.Args = append(append([]string{"gfsprof"}, tc.args...), dump)
		flag.CommandLine = flag.NewFlagSet("gfsprof", flag.ContinueOnError)
		main()
		os.Stdout, os.Args, flag.CommandLine = stdout, args, cmdline
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.digest {
			t.Errorf("gfsprof %s: digest %s, want %s:\n%s", strings.Join(tc.args, " "), got, tc.digest, b)
		}
	}
}
