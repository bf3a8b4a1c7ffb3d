package sim

import (
	"fmt"

	"hmccoal/internal/cache"
	"hmccoal/internal/coalescer"
	"hmccoal/internal/invariant"
	"hmccoal/internal/membackend"
)

// Snapshot is an opaque deep copy of a running System, taken between Steps:
// the token ring and per-core accounting, the outstanding-fill table, the
// staged tick loop's scheduling state, every cache level, the full
// coalescer (CRQ, MSHRs, in-flight and retry heaps), the memory backend
// (including the packet serial counter that keys fault injection) and the
// token ledger. Restoring it into a fresh or Reset System with the same
// Config and stepping to completion produces byte-identical results to the
// uninterrupted run — including under fault injection, because the fault
// injector is a pure function of restored counters.
//
// The trace is captured by reference: accesses are read-only to the
// simulator, so snapshot and original safely share it.
type Snapshot struct {
	cfg Config

	outstanding []int
	nextToken   uint64
	tokenCPU    []uint8
	tokenLine   []uint64
	stall       []uint64
	pushedTok   uint64
	doneTok     uint64
	failedTok   uint64

	fetchSlots []fetchSlot
	fetchMask  uint64
	fetchUsed  int

	lastClock uint64
	ts        tickState

	hier    *cache.HierarchyState
	coal    *coalescer.State
	backend membackend.Snapshot
	ledger  *invariant.TokenLedgerState
}

// copyTickState deep-copies the scheduling state. The trace and its index
// slices are immutable after Start and shared by reference.
func copyTickState(ts *tickState) tickState {
	out := *ts
	out.pos = append([]int32(nil), ts.pos...)
	out.cursors = append([]cursor(nil), ts.cursors...)
	out.parkedTick = append([]uint64(nil), ts.parkedTick...)
	out.parkedFence = append([]bool(nil), ts.parkedFence...)
	out.isParked = append([]bool(nil), ts.isParked...)
	out.fenceSignaled = append([]bool(nil), ts.fenceSignaled...)
	return out
}

// Snapshot deep-copies the system's state. It is legal between Steps of a
// started, unfinished run whose checks are clean; the system keeps running
// unaffected afterwards.
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
	cs, err := s.coal.SaveState()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Snapshot{
		cfg:         s.cfg,
		outstanding: append([]int(nil), s.outstanding...),
		nextToken:   s.nextToken,
		tokenCPU:    append([]uint8(nil), s.tokenCPU...),
		tokenLine:   append([]uint64(nil), s.tokenLine...),
		stall:       append([]uint64(nil), s.stall...),
		pushedTok:   s.pushedTok,
		doneTok:     s.doneTok,
		failedTok:   s.failedTok,
		fetchSlots:  append([]fetchSlot(nil), s.fetching.slots...),
		fetchMask:   s.fetching.mask,
		fetchUsed:   s.fetching.used,
		lastClock:   s.lastClock,
		ts:          copyTickState(&s.ts),
		hier:        s.hierarchy.SaveState(),
		coal:        cs,
		backend:     s.device.Snapshot(),
		ledger:      s.ledger.SaveState(),
	}, nil
}

// Restore replays a snapshot into an unstarted System — built fresh, or
// Reset — with the same Config (compared exactly — geometry, timing, mode,
// backend and fault setup must all match). The snapshot itself is not
// consumed: it deep copies into the system and can be restored again.
func (s *System) Restore(snap *Snapshot) error {
	if s.ts.started {
		return fmt.Errorf("sim: restore into a used System (build a fresh one or Reset it)")
	}
	if s.cfg != snap.cfg {
		return fmt.Errorf("sim: snapshot configuration differs from system configuration")
	}
	if len(snap.tokenCPU) != len(s.tokenCPU) || len(snap.outstanding) != len(s.outstanding) {
		return fmt.Errorf("sim: snapshot ring/CPU geometry differs")
	}
	if (snap.ledger == nil) != (s.ledger == nil) {
		return fmt.Errorf("sim: snapshot and system disagree on invariant checking")
	}
	if err := s.hierarchy.RestoreState(snap.hier); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := s.coal.RestoreState(snap.coal); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := s.device.Restore(snap.backend); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := s.ledger.RestoreState(snap.ledger); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	copy(s.outstanding, snap.outstanding)
	s.nextToken = snap.nextToken
	copy(s.tokenCPU, snap.tokenCPU)
	copy(s.tokenLine, snap.tokenLine)
	copy(s.stall, snap.stall)
	s.pushedTok = snap.pushedTok
	s.doneTok = snap.doneTok
	s.failedTok = snap.failedTok
	s.fetching = fetchTable{
		slots: append([]fetchSlot(nil), snap.fetchSlots...),
		mask:  snap.fetchMask,
		used:  snap.fetchUsed,
	}
	s.lastClock = snap.lastClock
	s.ts = copyTickState(&snap.ts)
	return nil
}
