package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: a child started with
// C2DATAGEN_RUN_MAIN=1 executes main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("C2DATAGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadScaleExits2: a -scale that is not a finite number above 0
// exits 2 naming the flag, before the command prints anything.
func TestBadScaleExits2(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "+Inf", "-Inf"} {
		cmd := exec.Command(os.Args[0], "-scale", scale)
		cmd.Env = append(os.Environ(), "C2DATAGEN_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-scale %s: err = %v, want exit status 2; stderr: %s", scale, err, &stderr)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-scale") {
			t.Fatalf("-scale %s: stdout %q, stderr %q; want no output and a message naming -scale", scale, &stdout, &stderr)
		}
	}
}
