package cache

import (
	"fmt"

	"hmccoal/internal/trace"
)

// Access, the full three-level walk of one access, is the oracle that
// FuzzPrivateFilter and the hierarchy tests hold FilterPrivate and
// ReplayLLC to. Production code walks the private levels once per trace
// and replays only the LLC per run.

// Access runs one core access through the stack. It returns the hit
// latency accumulated walking the levels and the LLC-level misses the
// access produced (fetch misses for each missing line the access touches,
// plus any dirty write-backs evicted along the way).
//
// Accesses that span cache lines are split per line, as the load/store
// unit would split them.
//
// The returned miss slice is reused by the next Access call; callers that
// need it longer must copy it.
//
// An access naming a CPU outside the configured range is a malformed
// trace, reported as an error rather than a panic: traces are user input.
func (h *Hierarchy) Access(a trace.Access) (latency uint64, misses []Miss, err error) {
	if a.Kind == trace.FenceOp {
		return 0, nil, nil
	}
	misses = h.missBuf[:0]
	if int(a.CPU) >= h.cfg.CPUs {
		return 0, nil, fmt.Errorf("cache: access from CPU %d, hierarchy has %d", a.CPU, h.cfg.CPUs)
	}
	lineBytes := uint64(h.LineBytes())
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
		payload := uint32(hi - lo)

		latency += h.cfg.L1.HitLatency
		if hit, _, _ := h.l1[a.CPU].Access(ln, write); hit {
			continue
		}
		// L1 victims are clean toward L2 in this model (L2 is inclusive
		// enough for the traffic shapes we simulate); only LLC-level dirty
		// evictions generate memory traffic.
		latency += h.cfg.L2.HitLatency
		if hit, _, _ := h.l2[a.CPU].Access(ln, write); hit {
			continue
		}
		latency += h.cfg.LLC.HitLatency
		hit, wb, hasWB := h.llc.Access(ln, write)
		if hit {
			continue
		}
		misses = append(misses, Miss{Line: ln, Addr: lo, Write: write, Payload: payload, CPU: a.CPU})
		if hasWB {
			misses = append(misses, Miss{
				Line:      wb,
				Addr:      wb * lineBytes,
				Write:     true,
				WriteBack: true,
				Payload:   h.LineBytes(),
				CPU:       a.CPU,
			})
		}
	}
	h.missBuf = misses
	return latency, misses, nil
}

// LevelStats aggregates the private levels across cores.
func (h *Hierarchy) LevelStats() (l1, l2 Stats) {
	for i := range h.l1 {
		l1.add(h.l1[i].Stats())
		l2.add(h.l2[i].Stats())
	}
	return l1, l2
}
