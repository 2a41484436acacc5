package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
