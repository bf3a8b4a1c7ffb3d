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
// the simulator snapshot plus everything needed to restore it into a fresh
// or reset System. Sweep and soak jobs leave it empty — their resume state
// is the durable JSONL checkpoint. parkState never leaves the process; a
// crashed daemon re-runs single jobs from scratch, which is byte-identical
// by the simulator's determinism contract.
type parkState struct {
	snap *hmccoal.SystemSnapshot
	cfg  hmccoal.Config
	accs []hmccoal.Access
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

// execSingle runs one benchmark under the two-phase coalescer, checking
// for preemption every parkCheckInterval steps. A park request snapshots
// the live simulation — the paper pipeline's Snapshot/Restore — so the
// resumed attempt continues from the exact tick with zero recompute and a
// summary byte-identical to an uninterrupted run. Both first runs and
// resumes take their System from the daemon's pool and hand it back once
// finished or parked; one that errors, is cancelled or times out is
// dropped.
func (d *Daemon) execSingle(ctl execCtl, spec Spec) execOutcome {
	var cfg hmccoal.Config
	var accs []hmccoal.Access
	resume := ctl.park != nil && ctl.park.snap != nil
	if resume {
		cfg, accs = ctl.park.cfg, ctl.park.accs
	} else {
		var err error
		accs, err = hmccoal.GenerateTrace(spec.Bench, spec.params())
		if err != nil {
			return execOutcome{err: err}
		}
		cfg = hmccoal.DefaultConfig()
		cfg.Mode = hmccoal.ModeTwoPhase
		cfg.Variant = spec.Variant
		cfg.Hierarchy.CPUs = spec.params().CPUs
	}
	sys, err := d.pool.Get(cfg)
	if err != nil {
		return execOutcome{err: err}
	}
	if resume {
		err = sys.Restore(ctl.park.snap)
	} else {
		err = sys.Start(accs)
	}
	if err != nil {
		return execOutcome{err: err}
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
		if err := ctl.ctx.Err(); err != nil {
			cause := context.Cause(ctl.ctx)
			if errors.Is(cause, errPark) || errors.Is(cause, errDrainPark) {
				snap, serr := sys.Snapshot() // a copy into a twin System: sys is free again
				if serr != nil {
					return execOutcome{err: serr}
				}
				d.pool.Put(sys, d.opt.slots())
				return execOutcome{park: &parkState{snap: snap, cfg: cfg, accs: accs}}
			}
			return execOutcome{err: cause}
		}
	}
}

// execSweep runs one evaluation sweep grid through its preset. Every
// attempt — first run, post-preemption resume, post-crash re-run —
// executes with the same per-job checkpoint file, so completed groups
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
