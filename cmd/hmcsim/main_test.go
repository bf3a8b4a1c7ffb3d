package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestFlagValidation pins the usage exit code for malformed worker-pool
// flags: negatives are rejected before any device run starts.
func TestFlagValidation(t *testing.T) {
	for name, argv := range map[string][]string{
		"negative workers": {"-workers", "-1", "-sweep"},
		"removed batch":    {"-batch", "2", "-sweep"},
		"bad size":         {"-size", "17"},
		"bad backend":      {"-backend", "sram"},
		"bad pattern":      {"-pattern", "zigzag", "-n", "1"},
	} {
		if code := run(argv); code != exitUsage {
			t.Errorf("%s (%v): exit %d, want %d", name, argv, code, exitUsage)
		}
	}
}

const goldenPath = "testdata/golden.txt"

// goldenArgs lists the pinned runs: every pattern, raw and through each
// front-end under both schedulers, on every backend; a faulty coalesced
// run; a fault plan the flat backends refuse; and the size sweep on every
// backend.
func goldenArgs() [][]string {
	var runs [][]string
	fronts := [][]string{
		nil,
		{"-frontend", "two-phase"},
		{"-frontend", "two-phase", "-sched", "hetero"},
		{"-frontend", "warp"},
		{"-frontend", "warp", "-sched", "hetero"},
	}
	for _, pattern := range []string{"seq", "random", "scatter16"} {
		for _, fe := range fronts {
			for _, be := range []string{"hmc", "ddr", "ideal"} {
				argv := []string{"-pattern", pattern, "-n", "4000", "-backend", be}
				runs = append(runs, append(argv, fe...))
			}
		}
	}
	runs = append(runs,
		[]string{"-pattern", "scatter16", "-n", "4000", "-frontend", "two-phase", "-faults", "seed=1,ber=1e-4"},
		[]string{"-pattern", "scatter16", "-n", "4000", "-backend", "ddr", "-faults", "seed=1,ber=1e-4"},
	)
	for _, be := range []string{"hmc", "ddr", "ideal"} {
		runs = append(runs, []string{"-sweep", "-backend", be})
	}
	return runs
}

// captureRun runs argv and returns its exit code and everything it wrote
// to stdout.
func captureRun(t *testing.T, argv []string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	code := run(argv)
	os.Stdout = stdout
	w.Close()
	return code, <-out
}

// TestGolden pins hmcsim's stdout and exit code for every run goldenArgs
// lists. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test -run TestGolden ./cmd/hmcsim
func TestGolden(t *testing.T) {
	var b strings.Builder
	for _, argv := range goldenArgs() {
		code, out := captureRun(t, argv)
		fmt.Fprintf(&b, "=== hmcsim %s (exit %d) ===\n%s", strings.Join(argv, " "), code, out)
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("hmcsim output drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
