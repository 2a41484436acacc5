package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenProduction pins the report and the JSONL trace of
// `gfssim -exp production -nodes 4 -jsonl t.jsonl` to sha256 digests.
// Kernel changes must not move a single event: any change to dispatch
// order, process hand-off or the model shows up here as a digest
// mismatch. A change that is meant to alter the output re-records the
// digests and says why.
func TestGoldenProduction(t *testing.T) {
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
	os.Args = []string{"gfssim", "-exp", "production", "-nodes", "4", "-jsonl", jsonl}
	flag.CommandLine = flag.NewFlagSet("gfssim", flag.ContinueOnError)
	main()
	os.Stdout = stdout
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	for _, f := range []struct{ path, digest string }{
		{report, "13b5921d658de74f271f85cf33b822fd51614e75f7c1ad78a797ef7ca2802644"},
		{jsonl, "3c467b14af0e89869ea8bece3ed4157f866ba468b7238b1ecfb4263676a68369"},
	} {
		b, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != f.digest {
			t.Errorf("%s: digest %s, want %s (%d bytes)", filepath.Base(f.path), got, f.digest, len(b))
		}
	}
}
