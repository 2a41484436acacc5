package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"gfs/internal/experiments"
)

// TestMain runs gfssim's main instead of the tests when the usage tests
// start the test binary as a gfssim child process.
func TestMain(m *testing.M) {
	if os.Getenv("GFSSIM_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runChild runs gfssim with args in a child process and returns its exit
// status and stdout.
func runChild(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GFSSIM_CHILD=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// parseArgs parses a gfssim command line without running anything.
func parseArgs(args ...string) (*command, error) {
	fs := flag.NewFlagSet("gfssim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, args)
}

// tuningValues holds a valid value for every tuning flag.
var tuningValues = map[string]string{
	"depth": "1", "block": "1048576", "filesize": "1048576",
	"crash": "5s", "outage": "5s", "duration": "5s",
	"ra-depth": "8", "wb-max-dirty": "8",
	"nodes": "4", "size": "64MiB", "gather": "true", "wide-tokens": "true",
	"token-shards": "4",
}

// TestTuningApplicability: a tuning flag is accepted only by the
// experiments whose registry entry declares it. Given to any other
// experiment, or to -exp all, gfssim exits with status 2 before it runs
// or prints anything.
func TestTuningApplicability(t *testing.T) {
	registry := experiments.All()
	readers := map[string][]string{}
	for _, r := range registry {
		for _, f := range r.Tuning {
			readers[f] = append(readers[f], r.Name)
		}
	}
	var flags []string
	for f := range readers {
		if _, ok := tuningValues[f]; !ok {
			t.Errorf("no test value for tuning flag -%s", f)
		}
		flags = append(flags, f)
	}
	if len(flags) != len(tuningValues) {
		t.Errorf("tuning flags %v, test values for %d", flags, len(tuningValues))
	}
	sort.Strings(flags)

	var o experiments.Options
	fs := flag.NewFlagSet("usage", flag.ContinueOnError)
	o.Register(fs)
	for _, f := range flags {
		// The help text names the same experiments as the registry.
		usage := fs.Lookup(f).Usage
		if names, _, _ := strings.Cut(usage, ":"); strings.TrimSuffix(names, " only") != strings.Join(readers[f], "/") {
			t.Errorf("-%s help %q does not start with %s", f, usage, strings.Join(readers[f], "/"))
		}
		arg := "-" + f + "=" + tuningValues[f]
		for _, r := range append(registry, experiments.Runner{Name: "all"}) {
			declared := slices.Contains(r.Tuning, f)
			if _, err := parseArgs("-exp", r.Name, arg); (err == nil) != declared {
				t.Errorf("-exp %s %s: parse error %v, declared %v", r.Name, arg, err, declared)
			}
			if declared {
				continue
			}
			if code, out := runChild(t, "-exp", r.Name, arg); code != 2 || out != "" {
				t.Errorf("-exp %s %s: exit %d, stdout %q; want exit 2 and no output", r.Name, arg, code, out)
			}
		}
	}

	for _, args := range [][]string{
		{"-exp", "production", "-nodes", "4,x"},
		{"-exp", "production", "-size", "0"},
		// A flag given at its zero or default value is still given.
		{"-exp", "failover", "-depth", "0"},
		{"-exp", "failover", "-token-shards", "-1"},
		{"-exp", "sc03", "-gather=false"},
	} {
		if _, err := parseArgs(args...); err == nil {
			t.Errorf("%s: accepted", strings.Join(args, " "))
		}
	}
	if code, out := runChild(t, "-exp", "failover", "-depth", "0", "-token-shards", "-1"); code != 2 || out != "" {
		t.Errorf("-exp failover -depth 0 -token-shards -1: exit %d, stdout %q; want exit 2 and no output", code, out)
	}
}

// docCommands returns every gfssim command line quoted in the markdown
// file at path: the lines of fenced code blocks that invoke gfssim
// (backslash continuations joined, # comments dropped) and the inline
// code spans that start with gfssim. Each is returned as its arguments.
func docCommands(t *testing.T, path string) [][]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	invoke := regexp.MustCompile(`^\s*(?:go run \./cmd/gfssim|\S*gfssim)(\s.*)?$`)
	span := regexp.MustCompile("`((?:go run ./cmd/|)gfssim(?: [^`]*)?)`")
	var cmds []string
	var prose []string
	fenced := false
	lines := strings.Split(string(b), "\n")
	for i := 0; i < len(lines); i++ {
		ln := lines[i]
		if strings.HasPrefix(strings.TrimSpace(ln), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose = append(prose, ln)
			continue
		}
		for strings.HasSuffix(ln, `\`) && i+1 < len(lines) {
			i++
			ln = strings.TrimSuffix(ln, `\`) + lines[i]
		}
		ln, _, _ = strings.Cut(ln, " #")
		if invoke.MatchString(ln) {
			cmds = append(cmds, ln)
		}
	}
	// A code span may wrap onto the next line within a paragraph.
	for _, para := range strings.Split(strings.Join(prose, "\n"), "\n\n") {
		for _, m := range span.FindAllStringSubmatch(strings.Join(strings.Fields(para), " "), -1) {
			cmds = append(cmds, m[1])
		}
	}
	var out [][]string
	for _, c := range cmds {
		args := strings.Fields(c)
		for len(args) > 0 && !strings.HasSuffix(args[0], "gfssim") {
			args = args[1:] // "go run" before ./cmd/gfssim
		}
		out = append(out, args[1:])
	}
	return out
}

// TestDocCommandLines: every gfssim command line quoted in the docs
// parses, passes Validate and passes the tuning check. -exp <name> stands
// for every experiment.
func TestDocCommandLines(t *testing.T) {
	n := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"} {
		for _, args := range docCommands(t, doc) {
			names := []string{""}
			if slices.Contains(args, "<name>") {
				names = names[:0]
				for _, r := range experiments.All() {
					names = append(names, r.Name)
				}
			}
			for _, name := range names {
				a := slices.Clone(args)
				if i := slices.Index(a, "<name>"); i >= 0 {
					a[i] = name
				}
				n++
				if _, err := parseArgs(a...); err != nil {
					t.Errorf("%s: gfssim %s: %v", filepath.Base(doc), strings.Join(a, " "), err)
				}
			}
		}
	}
	if n < 30 {
		t.Errorf("found only %d gfssim command lines in the docs", n)
	}
}
