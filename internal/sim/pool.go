package sim

import (
	"slices"
	"sync"
)

// Pool is an idle list of Systems no run uses any more, so a caller
// running many jobs pays NewSystem's multi-megabyte LLC once per
// concurrent run instead of once per job. A System taken from the
// pool is Reset, so its results are byte-identical to a fresh one's. The
// zero Pool is empty and ready; it is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	idle []*System // oldest first
}

// Get returns a System ready for cfg: the newest idle one built for the
// same CPU count and LLC, Reset to cfg, or else NewSystem(cfg). An invalid
// cfg fails without taking a System from the pool.
func (p *Pool) Get(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	var sys *System
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].fits(cfg) {
			sys = p.idle[i]
			p.idle = slices.Delete(p.idle, i, i+1)
			break
		}
	}
	p.mu.Unlock()
	if sys == nil {
		return NewSystem(cfg)
	}
	if err := sys.Reset(cfg); err != nil {
		return nil, err
	}
	return sys, nil
}

// Put hands back a System no run uses any more — finished or abandoned
// mid-run. A System stopped to be resumed later is not handed back: its
// owner keeps stepping it. The pool keeps at most limit Systems, the owner's
// concurrency; when it is full the oldest is dropped.
func (p *Pool) Put(sys *System, limit int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, sys)
	if over := len(p.idle) - limit; over > 0 {
		p.idle = slices.Delete(p.idle, 0, over)
	}
}

// Len is the number of idle Systems.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}
