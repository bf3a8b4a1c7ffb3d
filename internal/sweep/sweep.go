// Package sweep is a deterministic worker-pool engine for the evaluation
// pipeline's embarrassingly parallel simulation sweeps (benchmark × mode,
// benchmark × timeout, request-size grids, …).
//
// Every job is identified by its index in a fixed-size grid; results come
// back in index order regardless of completion order, so a sweep's output
// is byte-identical whether it ran on one worker or on every core. The
// engine supports context cancellation, a first-error-wins abort (the
// first job error cancels the remaining jobs and is the primary returned
// error, with later distinct failures joined behind it), and an optional
// serialized progress callback.
//
// Long campaigns survive three failure classes that would otherwise lose
// hours of compute: a panicking job is recovered into a PanicError naming
// the job index (the process and the other workers keep running), a hung
// job is abandoned after Options.JobTimeout, and Options.Checkpoint
// persists every completed result to a JSONL file so an interrupted sweep
// resumes without recomputing — with results restored by index, the
// resumed output is byte-identical to a cold run at any worker count.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hmccoal/internal/durable"
)

// Options tunes a sweep.
type Options struct {
	// Workers is the pool size. 0 means GOMAXPROCS (all cores);
	// 1 reproduces strictly serial, in-order execution.
	Workers int
	// Progress, when non-nil, is invoked after each job completes with
	// the number of finished jobs and the grid size. Calls are
	// serialized; done is strictly increasing up to total. On a
	// checkpoint resume, restored jobs are reported once, up front.
	Progress func(done, total int)
	// JobTimeout, when positive, bounds each job's run time. A job still
	// running at the deadline is abandoned (its goroutine cannot be
	// killed, but its result is discarded and its context cancelled) and
	// reported as a JobError wrapping context.DeadlineExceeded.
	JobTimeout time.Duration
	// Checkpoint, when non-empty, is a JSONL file persisting completed
	// results: one {"job":i,"n":n,"tag":t,"result":…} line per finished
	// job, appended as jobs complete (see internal/durable). Starting a
	// sweep with an existing checkpoint restores those results by index
	// and only runs the remainder. Lines from a different grid size or
	// Tag and lines torn by a crash mid-write are skipped individually —
	// the scan continues past them — and a job recorded twice (an
	// interrupted write re-appended on resume) restores its last complete
	// line. The result type must be JSON round-trippable for restored
	// runs to be byte-identical.
	Checkpoint string
	// KeepGoing runs every job even after failures instead of cancelling
	// the sweep at the first error. All distinct errors are aggregated in
	// the returned error; soak harnesses use this to collect every
	// violation in a grid rather than just the first.
	KeepGoing bool
	// Remote marks a sweep whose jobs block on external executors (a
	// distributed dispatcher) instead of computing locally. The pool is
	// then sized to keep every executor fed — one goroutine per pending
	// job, capped — rather than to the local core count, which would
	// starve a many-worker cluster from a small coordinator machine.
	Remote bool
	// Tag is the identity of the sweep's results: every checkpoint line
	// carries it, and on restore only lines whose tag and grid size both
	// match are used, so a checkpoint never resumes into a sweep whose
	// inputs differ. Callers derive it from everything that can change a
	// result (hmccoal hashes its sweep spec; soak names its campaign).
	Tag string
}

// JobError wraps a job failure with the index of the job that failed.
type JobError struct {
	Job int
	Err error
}

func (e *JobError) Error() string { return fmt.Sprintf("sweep: job %d: %v", e.Job, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a job panic converted into a first-class error: the sweep
// process survives, the other workers keep draining the grid, and the
// panic value plus its stack are preserved for the report.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: job %d panicked: %v", e.Job, e.Value)
}

// remotePoolCap bounds the dispatch goroutines of a Remote sweep: enough
// in-flight jobs to saturate any plausible worker fleet, small enough
// that a huge grid does not spawn a goroutine per job up front.
const remotePoolCap = 1024

// workers resolves the effective pool size for n pending jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if o.Remote {
		// Dispatch goroutines only block on the network; offer every
		// pending job concurrently (up to the cap) so work-stealing
		// executors are never starved, regardless of local core count. An
		// explicit Workers still bounds the in-flight jobs.
		if w <= 0 || w > n {
			w = n
		}
		if w > remotePoolCap {
			w = remotePoolCap
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// checkpointLine is one JSONL record of a completed job.
type checkpointLine struct {
	Job int    `json:"job"`
	N   int    `json:"n"`
	Tag string `json:"tag,omitempty"`
	// Result is deferred so restore can skip records whose envelope does
	// not match before paying for the payload.
	Result json.RawMessage `json:"result"`
}

// Map runs fn(ctx, i) for every i in [0, n) across the worker pool and
// returns the results in index order. The first job error (in completion
// order) cancels the remaining jobs — unless Options.KeepGoing — and is
// the primary returned error; distinct later failures are joined behind
// it via errors.Join. Jobs that never ran leave their result slot at the
// zero value. A cancelled ctx aborts the sweep with ctx's error.
//
// A job that panics is reported as a *PanicError; a job exceeding
// Options.JobTimeout as a *JobError wrapping context.DeadlineExceeded.
// Both name the job index, so a grid failure is replayable in isolation.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}

	restored := make([]bool, n)
	var ckpt *os.File
	if opts.Checkpoint != "" {
		nRestored, err := restoreCheckpoint(opts.Checkpoint, n, opts, results, restored)
		if err != nil {
			return results, err
		}
		ckpt, err = durable.OpenAppend(opts.Checkpoint)
		if err != nil {
			return results, fmt.Errorf("sweep: checkpoint: %w", err)
		}
		defer ckpt.Close()
		if opts.Progress != nil && nRestored > 0 {
			opts.Progress(nRestored, n)
		}
	}

	var pending []int
	for i, r := range restored {
		if !r {
			pending = append(pending, i)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu   sync.Mutex
		done = n - len(pending)
		errs []error
	)
	// finish serializes job completion: error aggregation and abort,
	// checkpoint append, then a progress tick. A context.Canceled after
	// the sweep has already aborted is the cancellation echoing through
	// the remaining in-flight jobs, not a distinct failure — it is not
	// recorded.
	finish := func(err error, record func() error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if len(errs) > 0 && errors.Is(err, context.Canceled) {
				return
			}
			errs = append(errs, err)
			if !opts.KeepGoing {
				cancel()
			}
			return
		}
		if record != nil {
			if werr := record(); werr != nil {
				errs = append(errs, werr)
				if !opts.KeepGoing {
					cancel()
				}
				return
			}
		}
		done++
		if opts.Progress != nil {
			opts.Progress(done, n)
		}
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := opts.workers(len(pending)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					return
				}
				r, err := runJob(ctx, i, opts, fn)
				if err != nil {
					finish(err, nil)
					continue
				}
				results[i] = r
				finish(nil, func() error {
					return appendCheckpoint(ckpt, i, n, opts, r)
				})
			}
		}()
	}

feed:
	for _, i := range pending {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	switch len(errs) {
	case 0:
		return results, ctx.Err()
	case 1:
		return results, errs[0]
	default:
		return results, errors.Join(errs...)
	}
}

// runJob executes one job with panic recovery and the optional timeout.
// On timeout the job's goroutine is abandoned — only runJob's caller ever
// writes result slots, so a late finisher cannot race the sweep.
func runJob[T any](ctx context.Context, i int, opts Options, fn func(ctx context.Context, i int) (T, error)) (T, error) {
	call := func(ctx context.Context) (r T, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &PanicError{Job: i, Value: p, Stack: debug.Stack()}
			}
		}()
		return fn(ctx, i)
	}
	if opts.JobTimeout <= 0 {
		return call(ctx)
	}
	tctx, tcancel := context.WithTimeout(ctx, opts.JobTimeout)
	defer tcancel()
	type outcome struct {
		r   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned job's send never blocks
	go func() {
		r, err := call(tctx)
		ch <- outcome{r, err}
	}()
	select {
	case o := <-ch:
		return o.r, o.err
	case <-tctx.Done():
		var zero T
		return zero, &JobError{Job: i, Err: tctx.Err()}
	}
}

// restoreCheckpoint loads completed results from a JSONL checkpoint into
// results/restored and reports how many were restored. A missing file is
// an empty checkpoint. durable.Scan skips torn and undecodable lines and
// continues past them, so a line torn by a crash mid-append costs exactly
// that line, never the rest of the file; records from a different grid
// size or tag, out-of-range indices and undecodable payloads are skipped
// the same way.
//
// Duplicate indices are last-wins: when a job appears twice — an
// interrupted write whose complete record was re-appended on resume — the
// later, complete line supersedes the earlier one. A job only counts as
// restored once, and only a line whose payload decodes can supersede.
func restoreCheckpoint[T any](path string, n int, opts Options, results []T, restored []bool) (int, error) {
	count := 0
	err := durable.Scan(path, func(line checkpointLine, _ int64, _ int) {
		if line.N != n || line.Tag != opts.Tag || line.Job < 0 || line.Job >= n {
			return
		}
		var r T
		if json.Unmarshal(line.Result, &r) != nil {
			return
		}
		results[line.Job] = r
		if !restored[line.Job] {
			restored[line.Job] = true
			count++
		}
	})
	if err != nil {
		return 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	return count, nil
}

// appendCheckpoint writes one completed job to the checkpoint as a
// single durable.Append — one JSONL line, one Write and one Sync — so a
// job recorded by finish is on disk before the sweep moves on. There is
// no deferred flush to lose: cancellation (or a crash) after a job's
// append costs nothing, and mid-append it tears only that line, which
// restore skips and the next OpenAppend terminates. A power loss can only
// take the lines after the last sync — never reorder a complete,
// acknowledged line behind a torn one. Does nothing when checkpointing is
// off.
func appendCheckpoint[T any](f *os.File, i, n int, opts Options, r T) error {
	if f == nil {
		return nil
	}
	raw, err := json.Marshal(r)
	if err == nil {
		raw, err = json.Marshal(checkpointLine{Job: i, N: n, Tag: opts.Tag, Result: raw})
	}
	if err != nil {
		return fmt.Errorf("sweep: checkpoint job %d: %w", i, err)
	}
	if err := durable.Append(f, append(raw, '\n')); err != nil {
		return fmt.Errorf("sweep: checkpoint job %d: %w", i, err)
	}
	return nil
}
