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

// TestMain runs dbserver's main instead of the tests when the test binary
// is re-executed by runServer, so a test can observe the real command's
// exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("DBSERVER_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runServer runs dbserver with args in a child process and returns its
// exit code and stderr. A server that starts instead of exiting is killed
// after the timeout and reported as exit code -1.
func runServer(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DBSERVER_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case ctx.Err() != nil:
		return -1, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatal(err)
		return 0, ""
	}
}

// TestRejectsInvalidLimits checks that flag values which would make the
// server refuse or drop every connection are usage errors: dbserver must
// exit 2 before opening the database or listening.
func TestRejectsInvalidLimits(t *testing.T) {
	for _, bad := range [][]string{
		{"-maxconns", "0"},
		{"-maxconns", "-1"},
		{"-idle", "0s"},
		{"-idle", "-1s"},
		{"-grace", "-1s"},
	} {
		dir := t.TempDir()
		args := append([]string{"-dir", dir, "-addr", "127.0.0.1:0", "-shards", "1"}, bad...)
		code, stderr := runServer(t, args...)
		if code != 2 {
			t.Errorf("dbserver %v: exit code %d, want 2; stderr:\n%s", bad, code, stderr)
			continue
		}
		if !strings.Contains(stderr, "Usage") {
			t.Errorf("dbserver %v: no usage message; stderr:\n%s", bad, stderr)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("dbserver %v: database directory touched (%d entries, err %v)", bad, len(entries), err)
		}
	}
}
