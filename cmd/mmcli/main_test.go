package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs mmcli's main instead of the tests when a test starts the
// test binary as an mmcli child process.
func TestMain(m *testing.M) {
	if os.Getenv("MMCLI_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runChild runs mmcli with args in a child process and returns its exit
// status and stdout.
func runChild(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MMCLI_CHILD=1")
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

// defaultDigest is the SHA-256 of the default run's stdout: every
// administration step, the handshake's virtual milliseconds and the
// verified write-then-read-back across the WAN.
const defaultDigest = "ec9e8a3e08cfddee23241890cb655c6f02bb7fa8018b13251726ba5c787edb17"

func TestDefaultRunVerifies(t *testing.T) {
	t.Parallel()
	code, out := runChild(t)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stdout:\n%s", code, out)
	}
	if !strings.Contains(out, "verified=true") {
		t.Errorf("read-back not verified; stdout:\n%s", out)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != defaultDigest {
		t.Errorf("stdout digest %s, want %s; stdout:\n%s", got, defaultDigest, out)
	}
}

func TestSecurityChecksHold(t *testing.T) {
	t.Parallel()
	for _, flag := range []string{"-deny", "-tamper"} {
		code, out := runChild(t, flag)
		if code != 0 || !strings.Contains(out, "security check held.") {
			t.Errorf("%s: exit %d, want 0 with \"security check held.\"; stdout:\n%s", flag, code, out)
		}
	}
}

func TestCipherList(t *testing.T) {
	t.Parallel()
	if code, out := runChild(t, "-cipherlist", "AES128"); code != 0 {
		t.Errorf("-cipherlist AES128: exit %d, want 0; stdout:\n%s", code, out)
	}
	if code, _ := runChild(t, "-cipherlist", "bogus"); code != 2 {
		t.Errorf("-cipherlist bogus: exit %d, want 2", code)
	}
}
