package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as miraged itself: with
// MIRAGED_TEST_MAIN set, the process is main() with the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("MIRAGED_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWrongModeFlagRefused: a flag only the other mode reads exits 1 with a
// message naming it, before anything is opened or bound, instead of being
// silently ignored.
func TestWrongModeFlagRefused(t *testing.T) {
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"-coordinator", "-workers", "http://127.0.0.1:1", "-store-dir", t.TempDir()}, "-store-dir"},
		{[]string{"-coordinator", "-workers", "http://127.0.0.1:1", "-parallel", "1"}, "-parallel"},
		{[]string{"-hedge-min", "20ms"}, "-hedge-min"},
		{[]string{"-probe-interval", "1s"}, "-probe-interval"},
		{[]string{"-workers", "http://127.0.0.1:1"}, "-workers"},
	}
	for _, tc := range cases {
		// A process that ignored the flag would start serving; bound it.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), "MIRAGED_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit status 1 (output %q)", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.flag+" does not apply") {
			t.Errorf("%v: output %q does not name %s", tc.args, out, tc.flag)
		}
	}
}
