package sim

import "fmt"

// Snapshot is a stopped twin of a running System, taken between Steps: a
// System built from the same Config that holds an exact copy of every
// layer's state — the token ring and per-core accounting, the
// outstanding-fill table, the staged tick loop's scheduling state, every
// cache level, the full coalescer, the memory backend (including the
// packet serial counter that keys fault injection) and the token ledger.
// The twin never steps. Restoring it into a fresh or Reset System with the
// same Config and stepping to completion produces byte-identical results
// to the uninterrupted run — including under fault injection, because the
// fault injector is a pure function of copied counters.
//
// The trace is shared by reference: accesses are read-only to the
// simulator, so snapshot and original safely share it.
type Snapshot struct {
	twin *System
}

// Snapshot copies the system into a stopped twin. It is legal between
// Steps of a started, unfinished run whose checks are clean; the system
// keeps running unaffected afterwards.
func (s *System) Snapshot() (*Snapshot, error) {
	if !s.ts.started {
		return nil, fmt.Errorf("sim: snapshot before Start")
	}
	if s.ts.finished {
		return nil, fmt.Errorf("sim: snapshot after Finish")
	}
	if s.runErr != nil {
		return nil, fmt.Errorf("sim: cannot snapshot after violation: %w", s.runErr)
	}
	twin, err := NewSystem(s.cfg)
	if err != nil {
		return nil, err
	}
	if err := twin.copyFrom(s); err != nil {
		return nil, err
	}
	return &Snapshot{twin: twin}, nil
}

// Restore copies a snapshot into an unstarted System — built fresh, or
// Reset — with the same Config (compared exactly — geometry, timing, mode,
// Variant, fault setup and invariant checking must all match). The
// snapshot itself is not consumed: it can be restored again.
func (s *System) Restore(snap *Snapshot) error {
	if s.ts.started {
		return fmt.Errorf("sim: restore into a used System (build a fresh one or Reset it)")
	}
	if s.cfg != snap.twin.cfg {
		return fmt.Errorf("sim: snapshot configuration differs from system configuration")
	}
	return s.copyFrom(snap.twin)
}

// copyFrom makes s an exact copy of src, a System built from the same
// Config, writing into s's own buffers. The trace and its index are shared
// by reference; the invariant checker and latched error stay s's own.
func (s *System) copyFrom(src *System) error {
	if err := s.coal.CopyFrom(src.coal); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := s.device.CopyFrom(src.device); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.hierarchy.CopyFrom(src.hierarchy)
	s.ledger.CopyFrom(src.ledger)
	copy(s.outstanding, src.outstanding)
	s.nextToken = src.nextToken
	copy(s.tokenCPU, src.tokenCPU)
	copy(s.tokenLine, src.tokenLine)
	copy(s.stall, src.stall)
	s.pushedTok = src.pushedTok
	s.doneTok = src.doneTok
	s.failedTok = src.failedTok
	s.fetching = fetchTable{
		slots: append(s.fetching.slots[:0], src.fetching.slots...),
		mask:  src.fetching.mask,
		used:  src.fetching.used,
	}
	s.lastClock = src.lastClock
	ts := s.ts
	s.ts = src.ts
	s.ts.pos = append(ts.pos[:0], src.ts.pos...)
	s.ts.cursors = append(ts.cursors[:0], src.ts.cursors...)
	s.ts.parkedTick = append(ts.parkedTick[:0], src.ts.parkedTick...)
	s.ts.parkedFence = append(ts.parkedFence[:0], src.ts.parkedFence...)
	s.ts.isParked = append(ts.isParked[:0], src.ts.isParked...)
	s.ts.fenceSignaled = append(ts.fenceSignaled[:0], src.ts.fenceSignaled...)
	return nil
}
