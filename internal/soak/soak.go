// Package soak is the seeded chaos harness for the simulator: it sweeps a
// randomized grid of workload × fault-config × timeout scenarios with the
// runtime invariant checker enabled, classifies every outcome, and — when
// a scenario trips a conservation law — shrinks the failing trace to a
// minimal reproduction saved as a replayable JSON artifact.
//
// Everything is deterministic: a scenario is a pure function of the soak
// seed and the run index, so any failure the harness ever reports can be
// regenerated bit-for-bit from the repro file's scenario block alone.
package soak

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/fault"
	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
	"hmccoal/internal/sim"
	"hmccoal/internal/sweep"
	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

// Scenario is one fully specified chaos run: the workload shape, the
// fault-injection profile, and the coalescer timeout configuration. It is
// derived deterministically from (Seed, Index) and is JSON round-trippable
// so a repro file alone can regenerate the exact failing run.
type Scenario struct {
	// Index is the run's position in the soak grid.
	Index int `json:"index"`
	// Seed is the soak seed the scenario was derived from.
	Seed int64 `json:"seed"`

	Workload  string `json:"workload"`
	CPUs      int    `json:"cpus"`
	OpsPerCPU int    `json:"ops_per_cpu"`
	TraceSeed int64  `json:"trace_seed"`

	// Mode is the miss-handling architecture (sim.Mode numeric value).
	Mode int `json:"mode"`

	BER       float64 `json:"ber"`
	DropRate  float64 `json:"drop_rate"`
	FaultSeed uint64  `json:"fault_seed"`

	TimeoutCycles   uint64 `json:"timeout_cycles"`
	AdaptiveTimeout bool   `json:"adaptive_timeout"`

	// Variant is the soaked machine. Its fields are omitted on legacy
	// repro files, which therefore keep replaying against the paper's
	// machine; an unknown name fails the read.
	sim.Variant
}

// String names the scenario compactly for logs.
func (sc Scenario) String() string {
	s := fmt.Sprintf("run %d: %s cpus=%d ops=%d mode=%v ber=%g drop=%g timeout=%d adaptive=%v",
		sc.Index, sc.Workload, sc.CPUs, sc.OpsPerCPU, sim.Mode(sc.Mode),
		sc.BER, sc.DropRate, sc.TimeoutCycles, sc.AdaptiveTimeout)
	if sc.Backend != hmc.KindHMC {
		s += " backend=" + sc.Backend.String()
	}
	if sc.Frontend != coalescer.KindTwoPhase {
		s += " frontend=" + sc.Frontend.String()
	}
	if sc.Sched != coalescer.SchedFRFCFS {
		s += " sched=" + sc.Sched.String()
	}
	return s
}

// scenario dimension grids. Drop rates are kept low enough that retries
// usually recover but high enough that the watchdog path gets exercised.
var (
	cpuGrid      = []int{2, 4, 8, 12}
	opsGrid      = []int{80, 150, 300, 500}
	modeGrid     = []sim.Mode{sim.Baseline, sim.DMCOnly, sim.TwoPhase}
	berGrid      = []float64{0, 0, 1e-6, 1e-5, 1e-4}
	dropGrid     = []float64{0, 0, 0, 1e-5, 1e-4}
	timeoutGrid  = []uint64{8, 16, 24, 48}
	scenarioSalt = int64(0x9E3779B97F4A7C) // golden-ratio salt, int64-safe
)

// MakeScenario derives run index i of a soak with the given seed. The same
// (seed, i) always yields the same scenario.
func MakeScenario(seed int64, i int) Scenario {
	rng := rand.New(rand.NewSource(seed ^ (int64(i)+1)*scenarioSalt))
	names := workloads.Names()
	return Scenario{
		Index:           i,
		Seed:            seed,
		Workload:        names[rng.Intn(len(names))],
		CPUs:            cpuGrid[rng.Intn(len(cpuGrid))],
		OpsPerCPU:       opsGrid[rng.Intn(len(opsGrid))],
		TraceSeed:       rng.Int63(),
		Mode:            int(modeGrid[rng.Intn(len(modeGrid))]),
		BER:             berGrid[rng.Intn(len(berGrid))],
		DropRate:        dropGrid[rng.Intn(len(dropGrid))],
		FaultSeed:       rng.Uint64(),
		TimeoutCycles:   timeoutGrid[rng.Intn(len(timeoutGrid))],
		AdaptiveTimeout: rng.Intn(2) == 1,
	}
}

// Trace regenerates the scenario's access trace.
func (sc Scenario) Trace() ([]trace.Access, error) {
	gen, ok := workloads.ByName(sc.Workload)
	if !ok {
		return nil, fmt.Errorf("soak: unknown workload %q", sc.Workload)
	}
	st, err := gen.Generate(workloads.Params{
		CPUs: sc.CPUs, OpsPerCPU: sc.OpsPerCPU, Seed: sc.TraceSeed,
	})
	return st.Flatten(), err
}

// Config assembles the simulator configuration for the scenario, checker
// always on — that is the point of the soak.
func (sc Scenario) Config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mode = sim.Mode(sc.Mode)
	cfg.Coalescer.TimeoutCycles = sc.TimeoutCycles
	cfg.Coalescer.AdaptiveTimeout = sc.AdaptiveTimeout
	cfg.HMC.Fault = fault.Config{Seed: sc.FaultSeed, BER: sc.BER, DropRate: sc.DropRate}
	cfg.Variant = sc.Variant
	if cfg.Backend != hmc.KindHMC {
		// Link fault injection is HMC-only: the alternative backends have
		// no serial links, so their scenarios soak the fault-free paths.
		cfg.HMC.Fault = fault.Config{}
	}
	cfg.Checks = true
	return cfg
}

// RunFunc executes one scenario over a trace and returns the run error.
// Tests inject failing RunFuncs to drive the shrinker deterministically.
type RunFunc func(sc Scenario, accs []trace.Access) error

// RunScenario is the production RunFunc: a full simulator run with the
// invariant checker enabled.
func RunScenario(sc Scenario, accs []trace.Access) error {
	s, err := sim.NewSystem(sc.Config())
	if err != nil {
		return err
	}
	_, err = s.Run(accs)
	return err
}

// Outcome classifies one scenario's result.
type Outcome int

const (
	// OK is a clean run: no error, no violation.
	OK Outcome = iota
	// Expected is a run that errored in a way chaos predicts: with
	// response drops injected, the coalescer watchdog legitimately
	// reports responses that never arrived. Not a failure.
	Expected
	// Failed is a genuine failure: an invariant violation, or any error
	// the fault profile does not explain.
	Failed
)

// Classify decides whether an error from a scenario run is a failure.
// Invariant violations are always failures — the checker only fires when a
// conservation law breaks. A watchdog error is expected if and only if the
// scenario injects response drops.
func Classify(sc Scenario, err error) Outcome {
	if err == nil {
		return OK
	}
	if _, ok := invariant.As(err); ok {
		return Failed
	}
	if errors.Is(err, coalescer.ErrWatchdog) && sc.DropRate > 0 && sc.Backend == hmc.KindHMC {
		return Expected
	}
	return Failed
}

// Options tunes a soak campaign.
type Options struct {
	// Seed drives the whole scenario grid.
	Seed int64
	// Runs is the number of scenarios to execute.
	Runs int
	// Workers is the sweep pool size (0 = all cores).
	Workers int
	// JobTimeout bounds each scenario run; a hung simulator counts as a
	// failure instead of wedging the harness.
	JobTimeout time.Duration
	// ReproDir, when non-empty, receives a shrunken repro JSON for every
	// failing scenario.
	ReproDir string
	// ShrinkBudget caps the number of re-runs the shrinker may spend per
	// failure (0 = DefaultShrinkBudget).
	ShrinkBudget int
	// Run replaces the production scenario runner; nil = RunScenario.
	Run RunFunc
	// Progress, when non-nil, receives sweep progress.
	Progress func(done, total int)
	// Variant soaks every scenario on this machine (fault dimensions are
	// neutralized for the link-less backends). It is a campaign-wide
	// override, not a random dimension, so the zero value keeps legacy
	// scenario derivations — and old repro indices — bit-identical.
	sim.Variant
	// Checkpoint, when non-empty, persists every classified scenario to a
	// JSONL file (see sweep.Options.Checkpoint) so an interrupted campaign
	// resumes without re-running completed scenarios — the serving layer's
	// park/resume path for soak jobs. Shrunken repros are part of the
	// checkpointed outcome, so a restored failure keeps its repro path.
	Checkpoint string
}

// scenario derives run i of the campaign on the campaign's machine. The
// default machine leaves scenarios identical to the legacy grid, so old
// repro indices stay reproducible.
func (o Options) scenario(i int) Scenario {
	sc := MakeScenario(o.Seed, i)
	sc.Variant = o.Variant
	return sc
}

// Failure is one failing scenario with its shrunken reproduction.
type Failure struct {
	Scenario Scenario
	Err      string
	Repro    Repro
	// ReproPath is where the repro JSON was written ("" when ReproDir is
	// unset or the write failed; WriteErr carries the reason).
	ReproPath string
	WriteErr  string
}

// Report summarizes a soak campaign.
type Report struct {
	Seed     int64
	Runs     int
	Clean    int
	Expected int
	Failures []Failure
}

// result is the per-job sweep payload. Scenario outcomes are data, not job
// errors: the grid always runs to completion and failures are collected in
// the report, exactly what sweep.Options.KeepGoing exists for. Ran guards
// against a timed-out or panicked job's zero-value slot masquerading as a
// clean run. The fields are exported (and JSON-tagged) because the result
// is what Options.Checkpoint persists — a restored line must round-trip.
type result struct {
	Ran     bool     `json:"ran"`
	Outcome Outcome  `json:"outcome"`
	Failure *Failure `json:"failure,omitempty"`
}

// Soak runs the campaign. The returned error covers harness-level problems
// (trace generation, cancelled context) — scenario failures are reported
// in Report.Failures, and the caller decides the exit code.
func Soak(ctx context.Context, opts Options) (Report, error) {
	run := opts.Run
	if run == nil {
		run = RunScenario
	}
	rep := Report{Seed: opts.Seed, Runs: opts.Runs}
	if opts.Runs <= 0 {
		return rep, nil
	}

	swOpts := sweep.Options{
		Workers:    opts.Workers,
		JobTimeout: opts.JobTimeout,
		KeepGoing:  true,
		Progress:   opts.Progress,
		Checkpoint: opts.Checkpoint,
		// The campaign identity: every scenario derives from it, so a
		// checkpoint restores only into the same campaign.
		Tag: fmt.Sprintf("seed=%d backend=%v frontend=%v sched=%v", opts.Seed, opts.Backend, opts.Frontend, opts.Sched),
	}
	results, err := sweep.Map(ctx, opts.Runs, swOpts, func(ctx context.Context, i int) (result, error) {
		sc := opts.scenario(i)
		accs, err := sc.Trace()
		if err != nil {
			return result{}, &sweep.JobError{Job: i, Err: err}
		}
		runErr := run(sc, accs)
		switch Classify(sc, runErr) {
		case OK:
			return result{Ran: true, Outcome: OK}, nil
		case Expected:
			return result{Ran: true, Outcome: Expected}, nil
		}
		f := &Failure{Scenario: sc, Err: runErr.Error()}
		f.Repro = Shrink(sc, accs, run, opts.ShrinkBudget)
		if opts.ReproDir != "" {
			path, werr := WriteRepro(opts.ReproDir, f.Repro)
			if werr != nil {
				f.WriteErr = werr.Error()
			} else {
				f.ReproPath = path
			}
		}
		return result{Ran: true, Outcome: Failed, Failure: f}, nil
	})

	// Sweep-level job errors (timeout, panic, trace generation) belong to
	// specific job indices: surface each as a failure of its scenario.
	jobErrs := make(map[int]string)
	collectJobErrs(err, jobErrs)

	for i, r := range results {
		if !r.Ran {
			msg, ok := jobErrs[i]
			if !ok {
				msg = "scenario did not run (sweep aborted)"
			}
			rep.Failures = append(rep.Failures, Failure{
				Scenario: opts.scenario(i), Err: msg,
			})
			continue
		}
		switch r.Outcome {
		case OK:
			rep.Clean++
		case Expected:
			rep.Expected++
		case Failed:
			if r.Failure != nil {
				rep.Failures = append(rep.Failures, *r.Failure)
			}
		}
	}
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	return rep, nil
}

// collectJobErrs walks an errors.Join tree attributing job-indexed errors
// (timeouts, panics, trace generation wrapped by the sweep) to their runs.
func collectJobErrs(err error, out map[int]string) {
	if err == nil {
		return
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			collectJobErrs(e, out)
		}
		return
	}
	var je *sweep.JobError
	if errors.As(err, &je) {
		out[je.Job] = je.Error()
		return
	}
	var pe *sweep.PanicError
	if errors.As(err, &pe) {
		out[pe.Job] = pe.Error()
	}
}
