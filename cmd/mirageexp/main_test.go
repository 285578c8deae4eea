package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs main instead of the tests when the test binary is re-executed
// as the command under test.
func TestMain(m *testing.M) {
	if os.Getenv("MIRAGEEXP_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mirageexp runs the command with args and returns its stdout, stderr and
// exit status.
func mirageexp(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIRAGEEXP_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("mirageexp %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestTinyScaleSkipsHeadline: the tiny scale has no 8:1 point, so a run of
// every experiment skips the Headline with one note on stderr and exits 0,
// while a run that names the Headline fails it and exits 1.
func TestTinyScaleSkipsHeadline(t *testing.T) {
	stdout, stderr, code := mirageexp(t, "-scale", "tiny")
	if code != 0 {
		t.Fatalf("-scale tiny exited %d, want 0; stderr:\n%s", code, stderr)
	}
	if n := strings.Count(stderr, "skipping"); n != 1 || !strings.Contains(stderr, "mirageexp: skipping Headline: ") {
		t.Errorf("-scale tiny: want one skip note, for the Headline; stderr:\n%s", stderr)
	}
	if !strings.Contains(stdout, "Figure 7") || strings.Contains(stdout, "Headline") {
		t.Errorf("-scale tiny: want every report but the Headline; stdout:\n%s", stdout)
	}

	stdout, stderr, code = mirageexp(t, "-scale", "tiny", "-only", "Headline")
	if code != 1 || !strings.Contains(stderr, "Headline failed") || stdout != "" {
		t.Errorf("-scale tiny -only Headline: exit %d, stdout %q, stderr %q; want exit 1 and the failure", code, stdout, stderr)
	}
}
