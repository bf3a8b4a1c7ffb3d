package jobserv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"hmccoal"
	"hmccoal/internal/soak"
)

// parkState is the in-memory resume state of a preempted single-run job:
// its own started System, stopped between Steps, which holds the trace by
// reference. Sweep and soak jobs leave it empty — their resume state is
// the durable JSONL checkpoint. parkState never leaves the process; a
// crashed daemon re-runs single jobs from scratch, which is
// byte-identical by the simulator's determinism contract.
type parkState struct {
	sys *hmccoal.System
}

// parkCheckInterval is how many simulator steps a single-run job advances
// between preemption checks: small enough that park latency is
// microseconds, large enough that the check never shows in a profile.
const parkCheckInterval = 4096

// realExec is the production executor: it dispatches a job to its kind's
// driver and translates interruption causes into park outcomes.
func (d *Daemon) realExec(ctl execCtl, id string, spec Spec) execOutcome {
	switch spec.Kind {
	case KindSingle:
		return d.execSingle(ctl, spec)
	case KindSweep:
		return d.execSweep(ctl, id, spec)
	case KindSoak:
		return d.execSoak(ctl, id, spec)
	default:
		return execOutcome{err: fmt.Errorf("jobserv: unknown job kind %q", spec.Kind)}
	}
}

// execSingle runs one benchmark under the two-phase coalescer over its
// per-core streams (hmccoal.GenerateIndex), checking for preemption every
// parkCheckInterval steps. A park request keeps the stopped System in the
// job's parkState, and the resumed attempt steps that same System on from
// the exact tick, with zero recompute and a summary byte-identical to an
// uninterrupted run. A first run takes its System from the daemon's pool;
// the System goes back once the job finishes, and one that errors, is
// cancelled (running or parked) or times out is dropped.
func (d *Daemon) execSingle(ctl execCtl, spec Spec) execOutcome {
	var sys *hmccoal.System
	if ctl.park != nil && ctl.park.sys != nil {
		sys = ctl.park.sys
	} else {
		idx, err := hmccoal.GenerateIndex(spec.Bench, spec.params())
		if err != nil {
			return execOutcome{err: err}
		}
		cfg := hmccoal.DefaultConfig()
		cfg.Mode = hmccoal.ModeTwoPhase
		cfg.Variant = spec.Variant
		cfg.Hierarchy.CPUs = spec.params().CPUs
		if sys, err = d.pool.Get(cfg); err != nil {
			return execOutcome{err: err}
		}
		if err := sys.StartIndexed(idx); err != nil {
			return execOutcome{err: err}
		}
	}

	for {
		for i := 0; i < parkCheckInterval; i++ {
			done, err := sys.Step()
			if err != nil {
				return execOutcome{err: err}
			}
			if done {
				res, err := sys.Finish()
				if err != nil {
					return execOutcome{err: err}
				}
				out := marshalResult(map[string]any{
					"kind":    KindSingle,
					"result":  res,
					"summary": res.Summary(),
				})
				d.pool.Put(sys, d.opt.slots())
				return out
			}
		}
		if d.opt.parkCheck != nil {
			d.opt.parkCheck(ctl.ctx, spec)
		}
		if err := ctl.ctx.Err(); err != nil {
			cause := context.Cause(ctl.ctx)
			if errors.Is(cause, errPark) || errors.Is(cause, errDrainPark) {
				return execOutcome{park: &parkState{sys: sys}}
			}
			return execOutcome{err: cause}
		}
	}
}

// execSweep runs one evaluation sweep grid through its preset. Every
// attempt — first run, post-preemption resume, post-crash re-run —
// executes with the same per-job checkpoint file, so completed cells
// restore instead of recomputing and the final output is byte-identical
// across any interruption history.
func (d *Daemon) execSweep(ctl execCtl, id string, spec Spec) execOutcome {
	pr, grid, opt, err := spec.sweep()
	if err != nil {
		return execOutcome{err: err}
	}
	opt.Workers = d.opt.SweepWorkers
	opt.Dispatch = d.opt.Dispatch
	opt.Progress = ctl.progress
	opt.Checkpoint = filepath.Join(ctl.dir, "ckpt", id+"."+spec.Sweep)
	payload, err := pr.Run(ctl.ctx, grid, opt)
	if err != nil {
		return execOutcome{err: err} // finish converts park-caused errors
	}
	payload["kind"] = KindSweep
	payload["sweep"] = spec.Sweep
	return marshalResult(payload)
}

// execSoak runs a seeded chaos campaign; its checkpoint makes every
// classified scenario durable, so interruptions only recompute scenarios
// that had not been classified yet.
func (d *Daemon) execSoak(ctl execCtl, id string, spec Spec) execOutcome {
	rep, err := soak.Soak(ctl.ctx, soak.Options{
		Seed:       spec.Seed,
		Runs:       spec.Runs,
		Workers:    d.opt.SweepWorkers,
		Variant:    spec.Variant,
		ReproDir:   filepath.Join(ctl.dir, "repros"),
		Progress:   ctl.progress,
		Checkpoint: filepath.Join(ctl.dir, "ckpt", id+".soak"),
	})
	if err != nil {
		return execOutcome{err: err}
	}
	return marshalResult(map[string]any{"kind": KindSoak, "report": rep})
}

// marshalResult renders a job's terminal payload. Go's json.Marshal sorts
// map keys, so identical data always yields identical bytes — the
// property the byte-identical recovery tests pin.
func marshalResult(payload map[string]any) execOutcome {
	raw, err := json.Marshal(payload)
	if err != nil {
		return execOutcome{err: fmt.Errorf("jobserv: encode result: %w", err)}
	}
	return execOutcome{result: raw}
}
