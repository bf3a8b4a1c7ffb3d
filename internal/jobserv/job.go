// Package jobserv is the survivable simulation job service: a multi-tenant
// daemon that admits simulation jobs over HTTP, schedules them onto a
// bounded slot pool with per-tenant quotas and priority preemption, and
// records every state transition in an fsync'd JSONL ledger so a crashed
// or drained daemon restarts into exactly the queue it left behind.
//
// Durability is layered, not monolithic. The ledger is the source of
// truth for job lifecycle (submitted → started → parked/resumed →
// done/failed/canceled); sweep and soak jobs additionally persist their
// completed work in the sweep layer's JSONL checkpoints, so a job that
// restarts after a crash recomputes only its unfinished groups and still
// produces byte-identical results. Single-run jobs are preempted through
// the simulator's in-memory Snapshot/Restore — zero recompute while the
// daemon lives — and re-run deterministically from scratch after a crash,
// which yields the same bytes by the simulator's core determinism
// contract.
package jobserv

import (
	"fmt"
	"net/http"
	"slices"
	"time"

	"hmccoal"
)

// Kind enumerates the job types the daemon executes.
type Kind string

const (
	// KindSingle runs one benchmark once (two-phase coalescer) and
	// returns its Result summary.
	KindSingle Kind = "single"
	// KindSweep runs one of the evaluation sweep grids and returns its
	// rows and rendered figure table.
	KindSweep Kind = "sweep"
	// KindSoak runs a seeded chaos campaign and returns its Report.
	KindSoak Kind = "soak"
)

// State is a job's position in its lifecycle.
type State string

const (
	// StateQueued: admitted, waiting for a slot.
	StateQueued State = "queued"
	// StateRunning: executing on a slot.
	StateRunning State = "running"
	// StateParked: preempted or drained mid-run; waiting to resume.
	StateParked State = "parked"
	// StateDone: completed; the result file exists.
	StateDone State = "done"
	// StateFailed: terminal failure (job error or watchdog timeout).
	StateFailed State = "failed"
	// StateCanceled: terminal; removed by the client.
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is the client-supplied job description: everything needed to run
// the job on any daemon process, so it is the payload the ledger persists
// with the submit record.
type Spec struct {
	Kind Kind `json:"kind"`

	// Params scales single and sweep jobs (zero values take the
	// simulator defaults at execution time).
	CPUs int   `json:"cpus,omitempty"`
	Ops  int   `json:"ops,omitempty"`
	Seed int64 `json:"seed,omitempty"`

	// Bench is the benchmark of single jobs and of one-benchmark sweeps
	// (timeout, mshr, fault).
	Bench string `json:"bench,omitempty"`
	// Variant is the machine the job simulates. The stride sweep grids
	// the front-end and scheduler itself and ignores them.
	hmccoal.Variant

	// Sweep names the preset grid of KindSweep jobs (see
	// hmccoal.LookupPreset); Timeouts, Entries and BERs replace the
	// defaults of its timeout, mshr and ber axes.
	Sweep    string    `json:"sweep,omitempty"`
	Timeouts []uint64  `json:"timeouts,omitempty"`
	Entries  []int     `json:"entries,omitempty"`
	BERs     []float64 `json:"bers,omitempty"`

	// Runs is the scenario count of KindSoak jobs (soak seed rides in
	// Seed).
	Runs int `json:"runs,omitempty"`
}

// Validate rejects malformed specs at admission, so the queue only ever
// holds runnable jobs. A sweep's grid compiles here, so a job no cell of
// which could run never takes a slot.
func (s Spec) Validate() error {
	if s.CPUs < 0 || s.Ops < 0 {
		return fmt.Errorf("jobserv: cpus and ops must be ≥ 0")
	}
	if err := s.Variant.Validate(); err != nil {
		return fmt.Errorf("jobserv: %w", err)
	}
	switch s.Kind {
	case KindSingle:
		if !slices.Contains(hmccoal.Benchmarks(), s.Bench) {
			return fmt.Errorf("jobserv: unknown benchmark %q", s.Bench)
		}
		return nil
	case KindSweep:
		if _, _, _, err := s.sweep(); err != nil {
			return fmt.Errorf("jobserv: %w", err)
		}
		return nil
	case KindSoak:
		if s.Runs <= 0 {
			return fmt.Errorf("jobserv: soak jobs need runs > 0")
		}
		return nil
	default:
		return fmt.Errorf("jobserv: unknown job kind %q", s.Kind)
	}
}

// sweep resolves a sweep job's preset and compiles its grid: the job's
// timeouts, entries and bers replace the defaults of the preset's axis of
// that name. The options carry the grid's settings; the executor adds how
// to run it.
func (s Spec) sweep() (*hmccoal.Preset, hmccoal.SweepSpec, hmccoal.SweepOptions, error) {
	opt := hmccoal.SweepOptions{Variant: s.Variant}
	pr, err := hmccoal.LookupPreset(s.Sweep)
	if err != nil {
		return nil, hmccoal.SweepSpec{}, opt, err
	}
	spec, err := pr.Spec(s.Bench, s.params(), opt,
		hmccoal.AxisOf("timeout", s.Timeouts), hmccoal.AxisOf("mshr", s.Entries), hmccoal.AxisOf("ber", s.BERs))
	return pr, spec, opt, err
}

// params assembles the spec's trace parameters, defaulting zero fields.
func (s Spec) params() hmccoal.TraceParams {
	p := hmccoal.TraceParams{CPUs: s.CPUs, OpsPerCPU: s.Ops, Seed: s.Seed}
	if p.CPUs == 0 {
		p.CPUs = 4
	}
	if p.OpsPerCPU == 0 {
		p.OpsPerCPU = 400
	}
	if p.Seed == 0 {
		p.Seed = 3
	}
	return p
}

// Job is the daemon's record of one admitted job. All fields are guarded
// by the daemon's mutex; JobView is the lock-free copy handed to clients.
type Job struct {
	ID       string
	Tenant   string
	Priority int
	Spec     Spec

	state         State
	err           string
	order         uint64 // admission sequence; FIFO tiebreak within a priority
	attempts      int    // times started or resumed
	preemptions   int
	progressDone  int
	progressTotal int

	// park is the in-memory resume state of a preempted single-run job
	// (the simulator snapshot). It does not survive the process — after a
	// crash the job re-runs from scratch, deterministically.
	park *parkState
	// preempting marks a running job already asked to park, so the
	// scheduler does not preempt it twice.
	preempting bool
}

// JobView is the client-visible copy of a job.
type JobView struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	Priority    int    `json:"priority"`
	Kind        Kind   `json:"kind"`
	State       State  `json:"state"`
	Error       string `json:"error,omitempty"`
	Attempts    int    `json:"attempts"`
	Preemptions int    `json:"preemptions"`
	// Done/Total expose sweep and soak progress (0/0 until known).
	Done  int `json:"done"`
	Total int `json:"total"`
}

func (j *Job) view() JobView {
	return JobView{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Priority:    j.Priority,
		Kind:        j.Spec.Kind,
		State:       j.state,
		Error:       j.err,
		Attempts:    j.attempts,
		Preemptions: j.preemptions,
		Done:        j.progressDone,
		Total:       j.progressTotal,
	}
}

// AdmitError is the structured admission refusal the HTTP layer renders:
// machine-readable code, human message, and a retry hint for rate limits.
type AdmitError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	Tenant       string `json:"tenant,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// Admission refusal codes.
const (
	// CodeQueueFull: the daemon-wide pending queue is at capacity.
	CodeQueueFull = "queue_full"
	// CodeTenantQueue: the tenant is at its max-queued quota.
	CodeTenantQueue = "tenant_queue_quota"
	// CodeRateLimited: the tenant's submit token bucket is empty.
	CodeRateLimited = "rate_limited"
	// CodeDraining: the daemon is shutting down and admits nothing.
	CodeDraining = "draining"
	// CodeBadSpec: the job spec failed validation.
	CodeBadSpec = "bad_spec"
)

func (e *AdmitError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("jobserv: %s (tenant %s): %s", e.Code, e.Tenant, e.Message)
	}
	return fmt.Sprintf("jobserv: %s: %s", e.Code, e.Message)
}

// HTTPStatus maps the refusal to its transport status: quota and rate
// refusals are 429, drain is 503, a bad spec is 400.
func (e *AdmitError) HTTPStatus() int {
	switch e.Code {
	case CodeDraining:
		return http.StatusServiceUnavailable
	case CodeBadSpec:
		return http.StatusBadRequest
	default:
		return http.StatusTooManyRequests
	}
}

// retryAfter converts a wait into the JSON hint, rounding up so clients
// never retry early.
func retryAfterMs(d time.Duration) int64 {
	ms := d.Milliseconds()
	if d > 0 && ms == 0 {
		ms = 1
	}
	return ms
}
