// Command hmcsoak is the seeded chaos harness: it sweeps a randomized grid
// of workload × fault-config × timeout scenarios with the runtime invariant
// checker enabled, shrinks any violation to a minimal repro JSON, and
// replays saved repros.
//
// Usage:
//
//	hmcsoak -seed 1 -runs 50                 # a 50-scenario campaign
//	hmcsoak -runs 200 -workers 4 -v          # bigger grid, live progress
//	hmcsoak -replay testdata/repros/r.json   # replay a saved repro
//
// Exit codes: 0 clean, 1 usage/configuration error, 2 violation found (or
// a replayed repro still failing).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"hmccoal/internal/sim"
	"hmccoal/internal/soak"
)

const (
	exitUsage     = 1
	exitViolation = 2
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("hmcsoak", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "soak seed; the whole scenario grid is a pure function of it")
		runs     = fs.Int("runs", 50, "number of scenarios to run")
		workers  = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-scenario wall-clock budget (0 = unbounded)")
		reproDir = fs.String("repro-dir", "testdata/repros", "directory for shrunken repro files ('' disables)")
		budget   = fs.Int("shrink-budget", soak.DefaultShrinkBudget, "max re-runs the shrinker may spend per failure")
		replay   = fs.String("replay", "", "replay a repro JSON file instead of soaking")
		ckpt     = fs.String("checkpoint", "", "JSONL checkpoint file: completed scenarios persist and an interrupted campaign resumes from it")
		verbose  = fs.Bool("v", false, "print per-scenario progress")
	)
	var v sim.Variant
	sim.RegisterVariantFlags(fs, &v)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "hmcsoak: -workers must be ≥ 0, got %d\n", *workers)
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *replay != "" {
		return replayRepro(*replay)
	}

	if *runs <= 0 {
		fmt.Fprintln(os.Stderr, "hmcsoak: -runs must be positive")
		return exitUsage
	}

	opts := soak.Options{
		Seed: *seed, Runs: *runs, Workers: *workers,
		JobTimeout: *timeout, ReproDir: *reproDir, ShrinkBudget: *budget,
		Variant: v, Checkpoint: *ckpt,
	}
	if *verbose {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsoak: %d/%d scenarios", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	rep, err := soak.Soak(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmcsoak: %v\n", err)
		return exitUsage
	}

	fmt.Printf("soak seed=%d: %d scenarios — %d clean, %d expected fault outcomes, %d failures\n",
		rep.Seed, rep.Runs, rep.Clean, rep.Expected, len(rep.Failures))
	if len(rep.Failures) == 0 {
		return 0
	}
	for _, f := range rep.Failures {
		fmt.Printf("\nFAIL %v\n  %s\n", f.Scenario, f.Err)
		if f.ReproPath != "" {
			fmt.Printf("  repro: %s (trace %d -> %d accesses, %d shrink steps)\n",
				f.ReproPath, f.Repro.OrigLen, f.Repro.PrefixLen, f.Repro.ShrinkSteps)
			fmt.Printf("  replay: hmcsoak -replay %s\n", f.ReproPath)
		} else if f.WriteErr != "" {
			fmt.Printf("  repro not written: %s\n", f.WriteErr)
		}
	}
	return exitViolation
}

// replayRepro re-runs a saved repro. A repro that still fails exits 2 —
// that is the file doing its job; 0 means the underlying bug is gone.
func replayRepro(path string) int {
	r, err := soak.ReadRepro(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmcsoak: %v\n", err)
		return exitUsage
	}
	fmt.Printf("replaying %s\n  %v\n  original error: %s\n", path, r.Scenario, r.Error)
	err = soak.Replay(r, nil)
	if soak.Classify(r.Scenario, err) == soak.Failed {
		fmt.Printf("still failing: %v\n", err)
		return exitViolation
	}
	fmt.Println("no longer failing — violation is fixed")
	return 0
}
