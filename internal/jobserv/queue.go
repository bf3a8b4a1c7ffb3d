package jobserv

import (
	"fmt"
	"time"
)

// Quota is the per-tenant admission policy. Zero fields are unlimited, so
// the zero Quota admits everything — quotas are opt-in per deployment.
type Quota struct {
	// MaxQueued caps a tenant's jobs waiting for a slot (queued+parked).
	MaxQueued int
	// MaxRunning caps a tenant's concurrently executing jobs; further
	// jobs stay queued even when slots are free, so one tenant cannot
	// monopolize the pool.
	MaxRunning int
	// Rate refills the tenant's submit token bucket (submits/second).
	Rate float64
	// Burst is the bucket capacity (0 with Rate > 0 means 1).
	Burst int
}

func (q Quota) burst() float64 {
	if q.Burst <= 0 {
		return 1
	}
	return float64(q.Burst)
}

// tenant is one tenant's live accounting. Guarded by the daemon mutex.
type tenant struct {
	queued  int // jobs in StateQueued or StateParked
	running int
	tokens  float64
	last    time.Time
	primed  bool // tokens initialized to a full bucket on first sight
}

// TenantStatus is a tenant's row in the daemon status snapshot.
type TenantStatus struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// admit applies the tenant-level policy to one submission at time now,
// debiting a rate token on success. It does not check the global queue
// cap — that is the daemon's, not the tenant's.
func (tn *tenant) admit(q Quota, tenantName string, now time.Time) *AdmitError {
	if q.MaxQueued > 0 && tn.queued >= q.MaxQueued {
		return &AdmitError{
			Code:    CodeTenantQueue,
			Message: fmt.Sprintf("%d jobs queued, quota is %d", tn.queued, q.MaxQueued),
			Tenant:  tenantName,
		}
	}
	if q.Rate > 0 {
		if !tn.primed {
			tn.tokens, tn.last, tn.primed = q.burst(), now, true
		}
		tn.tokens += now.Sub(tn.last).Seconds() * q.Rate
		tn.last = now
		if cap := q.burst(); tn.tokens > cap {
			tn.tokens = cap
		}
		if tn.tokens < 1 {
			wait := time.Duration((1 - tn.tokens) / q.Rate * float64(time.Second))
			return &AdmitError{
				Code:         CodeRateLimited,
				Message:      fmt.Sprintf("submit rate %.3g/s exceeded", q.Rate),
				Tenant:       tenantName,
				RetryAfterMs: retryAfterMs(wait),
			}
		}
		tn.tokens--
	}
	return nil
}

// popLocked removes and returns the best schedulable pending job, or nil
// when nothing is schedulable. Caller holds d.mu.
func (d *Daemon) popLocked() *Job {
	best := d.bestPendingLocked()
	if best < 0 {
		return nil
	}
	j := d.pending[best]
	d.pending = append(d.pending[:best], d.pending[best+1:]...)
	return j
}

// bestPendingLocked is the one job-pick rule, shared by dispatch
// (popLocked) and preemption: it returns the index in d.pending of the
// best schedulable job — highest priority first, admission order within
// a priority, skipping tenants at their max-running quota — or -1 when
// nothing is schedulable. Caller holds d.mu.
func (d *Daemon) bestPendingLocked() int {
	best := -1
	for i, j := range d.pending {
		if q := d.opt.Quota.MaxRunning; q > 0 && d.tenantLocked(j.Tenant).running >= q {
			continue
		}
		if best < 0 || j.Priority > d.pending[best].Priority ||
			(j.Priority == d.pending[best].Priority && j.order < d.pending[best].order) {
			best = i
		}
	}
	return best
}

// removePendingLocked drops j from the pending queue if present.
func (d *Daemon) removePendingLocked(j *Job) {
	for i, q := range d.pending {
		if q == j {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			return
		}
	}
}

// tenantLocked returns (creating) the tenant record.
func (d *Daemon) tenantLocked(name string) *tenant {
	tn := d.tenants[name]
	if tn == nil {
		tn = &tenant{}
		d.tenants[name] = tn
	}
	return tn
}
