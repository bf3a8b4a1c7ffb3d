package cache

import (
	"fmt"

	"hmccoal/internal/trace"
)

// oracle is the full three-level walk, per access, that FuzzPrivateFilter
// and the hierarchy tests hold FilterPrivate and ReplayLLC to: every core
// has its own L1 and L2 in front of the shared LLC. Production code walks
// the private levels once per trace and replays only the LLC per run.
type oracle struct {
	cfg    HierarchyConfig
	l1, l2 []*Cache
	llc    *Cache
	buf    []Miss // reused by Access
}

// newOracle builds the full stack for cfg.
func newOracle(cfg HierarchyConfig) (*oracle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &oracle{cfg: cfg}
	for range cfg.CPUs {
		l1, err := New(cfg.L1)
		if err != nil {
			return nil, err
		}
		l2, err := New(cfg.L2)
		if err != nil {
			return nil, err
		}
		o.l1, o.l2 = append(o.l1, l1), append(o.l2, l2)
	}
	var err error
	o.llc, err = New(cfg.LLC)
	return o, err
}

// Access runs one core access through the stack and returns the
// LLC-level misses it produced: a fetch for each missing line the access
// touches, plus any dirty write-backs evicted along the way. Accesses
// that span cache lines are split per line, as the load/store unit would
// split them. The returned slice is reused by the next call. An access
// naming a CPU outside the configured range is an error.
func (o *oracle) Access(a trace.Access) ([]Miss, error) {
	if a.Kind == trace.FenceOp {
		return nil, nil
	}
	if int(a.CPU) >= o.cfg.CPUs {
		return nil, fmt.Errorf("cache: access from CPU %d, hierarchy has %d", a.CPU, o.cfg.CPUs)
	}
	misses := o.buf[:0]
	lineBytes := uint64(o.cfg.LLC.LineBytes)
	first := a.Addr / lineBytes
	last := (a.End() - 1) / lineBytes
	write := a.Kind == trace.Store
	for ln := first; ln <= last; ln++ {
		// Useful bytes of this access that land in line ln.
		lo, hi := ln*lineBytes, (ln+1)*lineBytes
		if a.Addr > lo {
			lo = a.Addr
		}
		if a.End() < hi {
			hi = a.End()
		}
		if hit, _, _ := o.l1[a.CPU].Access(ln, write); hit {
			continue
		}
		// L1 victims are clean toward L2 in this model; only LLC-level
		// dirty evictions generate memory traffic.
		if hit, _, _ := o.l2[a.CPU].Access(ln, write); hit {
			continue
		}
		hit, wb, hasWB := o.llc.Access(ln, write)
		if hit {
			continue
		}
		misses = append(misses, Miss{Line: ln, Addr: lo, Write: write, Payload: uint32(hi - lo), CPU: a.CPU})
		if hasWB {
			misses = append(misses, Miss{
				Line:      wb,
				Addr:      wb * lineBytes,
				Write:     true,
				WriteBack: true,
				Payload:   o.cfg.LLC.LineBytes,
				CPU:       a.CPU,
			})
		}
	}
	o.buf = misses
	return misses, nil
}

// reset returns every level to its freshly built state.
func (o *oracle) reset() {
	for i := range o.l1 {
		o.l1[i].Reset()
		o.l2[i].Reset()
	}
	o.llc.Reset()
}

// levelStats aggregates the private levels across cores.
func (o *oracle) levelStats() (l1, l2 Stats) {
	for i := range o.l1 {
		l1.add(o.l1[i].Stats())
		l2.add(o.l2[i].Stats())
	}
	return l1, l2
}
