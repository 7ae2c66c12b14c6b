package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runAsDLFSCTL is set in the environment of a re-executed test binary to
// make it run main() with the remaining arguments instead of the tests.
const runAsDLFSCTL = "DLFSCTL_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsDLFSCTL) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dlfsctl runs the test binary as the dlfsctl command with args and
// returns its combined output; the run fails the test unless it exits 0.
func dlfsctl(t *testing.T, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), runAsDLFSCTL+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dlfsctl %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestSmoke drives the live-path smoke command in its main modes on two
// local targets and 200 samples: a healthy epoch, a server-assembled
// epoch under the crc32c-verify transform, a checkpoint save with
// verified read-back, and a degraded epoch with one target blackholed.
// Each must exit 0, which smoke only does with no checksum failures.
func TestSmoke(t *testing.T) {
	base := []string{"smoke", "-targets", "2", "-n", "200"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"healthy", nil, "0 checksum failures"},
		{"server-assembly-crc32c", []string{"-server-assembly", "-assembly-transform", "1"}, "0 checksum failures"},
		{"write", []string{"-write"}, "read-back verified"},
		{"dead", []string{"-dead", "1"}, "epoch degraded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := dlfsctl(t, append(append([]string{}, base...), tc.args...)...)
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
