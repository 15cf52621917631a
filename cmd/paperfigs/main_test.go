package main

import (
	"errors"
	"flag"
	"os"
	"strings"
	"testing"
)

func TestRunHelpIsErrHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h must surface flag.ErrHelp, got %v", err)
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("unknown flag must be a plain error, got %v", err)
	}
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	if err := run([]string{"-backend", "quantum"}); err == nil {
		t.Fatal("unknown backend must error")
	}
}

// TestRunSimBackendOnly: with -backend sim no analytic bound exists, so
// the run skips the all-NaN table and chart instead of failing on them,
// and still prints the simulator cross-check.
func TestRunSimBackendOnly(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	old := os.Stdout
	os.Stdout = out
	err = run([]string{"-fig", "2", "-quick", "-backend", "sim", "-slots", "2000"})
	os.Stdout = old
	if err != nil {
		t.Fatalf("paperfigs -backend sim: %v", err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "simulator cross-check") {
		t.Errorf("no simulator cross-check in the output:\n%s", got)
	}
}
