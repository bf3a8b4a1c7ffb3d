package sim

import (
	"fmt"

	"hmccoal/internal/cache"
	"hmccoal/internal/coalescer"
	"hmccoal/internal/invariant"
	"hmccoal/internal/trace"
)

// tickState is the explicit per-run scheduling state of the staged tick
// loop: the trace laid out by CPU, the cursor heap merging per-CPU streams,
// the parked-core bookkeeping and the high-water tick. Making it a named
// struct (instead of Run-local variables) is what lets the simulator stop
// between any two events and be stepped one event at a time.
type tickState struct {
	// accs, streamOff and streamIdx are the run's TraceIndex, shared by
	// reference: streamOff[c]..streamOff[c+1] delimits CPU c's stream,
	// stored in accs directly or, for a bucketed tick-ordered trace,
	// through the positions in streamIdx (see streamAt).
	accs      []trace.Access
	streamOff []int32
	streamIdx []int32
	pos       []int32 // per-CPU position within its stream

	// filter is the index's private-level filter for this System's L1 and
	// L2, indexed by stream position: only the lines it flags reach the
	// LLC, and Finish reports its L1 and L2 totals.
	filter *cache.PrivateFilter

	// cursors is a hand-inlined min-heap on (tick, cpu) merging the
	// runnable CPUs' next accesses in global time order.
	cursors []cursor

	// Parked-core bookkeeping as fixed per-CPU arrays (indexed by CPU
	// number) so parking, waking and diagnostics are map-free and walk the
	// cores in index order — deterministic by construction.
	parkedTick    []uint64 // when the core parked (stall start)
	parkedFence   []bool   // waiting for outstanding == 0 rather than < budget
	isParked      []bool
	fenceSignaled []bool
	nParked       int

	// last is the latest tick at which a core issued or memory made
	// progress while no core was runnable; Drain picks up from it.
	last uint64

	started  bool
	finished bool
}

// Start validates and buckets the trace and arms the tick loop. The trace
// must be ordered by tick (as returned by GenerateTrace); it is indexed
// in place, not copied. A System
// runs once per Start: Reset it, or take one from a Pool, to run again.
func (s *System) Start(accs []trace.Access) error {
	if s.ts.started {
		return fmt.Errorf("sim: Start called twice (Reset the System to run it again)")
	}
	// The index stays on the stack: StartIndexed copies its slices into the
	// tick state and never retains the pointer.
	var idx TraceIndex
	if err := idx.init(accs, s.cfg.Hierarchy.CPUs); err != nil {
		return err
	}
	return s.StartIndexed(&idx)
}

// StartIndexed arms the tick loop over an indexed trace. The index may
// be shared by any number of concurrent or sequential runs, so a sweep
// replaying one trace under several configurations lays it out once, and
// walks it through the private L1 and L2 once per (L1, L2) pair: the first
// run on a pair builds the index's filter, and every run replays only the
// shared LLC. The index must have
// been built for this system's CPU count.
func (s *System) StartIndexed(idx *TraceIndex) error {
	if s.ts.started {
		return fmt.Errorf("sim: Start called twice (Reset the System to run it again)")
	}
	if idx == nil {
		return fmt.Errorf("sim: StartIndexed with nil index")
	}
	cpus := s.cfg.Hierarchy.CPUs
	if idx.cpus != cpus {
		return fmt.Errorf("sim: trace index bucketed for %d CPUs, system has %d", idx.cpus, cpus)
	}
	f, err := idx.privateFilter(s.cfg.Hierarchy)
	if err != nil {
		return err
	}
	ts := &s.ts
	ts.filter = f
	ts.accs = idx.accs
	ts.streamOff = idx.streamOff
	ts.streamIdx = idx.streamIdx
	ts.cursors = make([]cursor, 0, cpus)
	for cpu := 0; cpu < cpus; cpu++ {
		if s.streamLen(uint8(cpu)) > 0 {
			ts.cursors = cursorPush(ts.cursors, cursor{tick: s.streamAt(uint8(cpu), 0).Tick, cpu: uint8(cpu)})
		}
	}
	ts.pos = make([]int32, cpus)
	ts.parkedTick = make([]uint64, cpus)
	// One backing array for the three per-CPU flag slices.
	flags := make([]bool, 3*cpus)
	ts.parkedFence = flags[:cpus:cpus]
	ts.isParked = flags[cpus : 2*cpus : 2*cpus]
	ts.fenceSignaled = flags[2*cpus : 3*cpus : 3*cpus]
	ts.started = true
	return nil
}

// streamLen is CPU cpu's trace length.
func (s *System) streamLen(cpu uint8) int32 {
	return s.ts.streamOff[int(cpu)+1] - s.ts.streamOff[cpu]
}

// streamAt is CPU cpu's p-th access.
func (s *System) streamAt(cpu uint8, p int32) *trace.Access {
	i := s.ts.streamOff[cpu] + p
	if s.ts.streamIdx != nil {
		i = s.ts.streamIdx[i]
	}
	return &s.ts.accs[i]
}

// wake moves parked CPUs whose condition now holds back into the cursor
// heap at the wake tick.
func (s *System) wake(now uint64) {
	ts := &s.ts
	if ts.nParked == 0 {
		return
	}
	for cpu := range ts.isParked {
		if !ts.isParked[cpu] {
			continue
		}
		ready := (ts.parkedFence[cpu] && s.outstanding[cpu] == 0) ||
			(!ts.parkedFence[cpu] && s.outstanding[cpu] < s.cfg.MaxOutstanding)
		if !ready {
			continue
		}
		if now > ts.parkedTick[cpu] {
			s.stall[cpu] += now - ts.parkedTick[cpu]
		}
		t := ts.parkedTick[cpu]
		if now > t {
			t = now
		}
		ts.cursors = cursorPush(ts.cursors, cursor{tick: t, cpu: uint8(cpu)})
		ts.isParked[cpu] = false
		ts.nParked--
	}
}

// park removes the root cursor's CPU from the runnable set until wake's
// condition (fence: outstanding == 0; MLP: outstanding < budget) holds.
func (s *System) park(cpu uint8, tick uint64, fence bool) {
	ts := &s.ts
	ts.cursors = cursorPopRoot(ts.cursors)
	ts.parkedTick[cpu] = tick
	ts.parkedFence[cpu] = fence
	ts.isParked[cpu] = true
	ts.nParked++
}

// Step advances the simulation by one scheduling event — a memory-system
// delivery or one core access — and reports whether the trace has fully
// issued (Finish then drains the memory system). The stages inside one
// step, in order: error poll, memory retire, then for the chosen core
// either fence handling, MLP parking, or trace feed + re-touch
// regeneration, and finally the cursor advance.
func (s *System) Step() (bool, error) {
	ts := &s.ts
	if !ts.started {
		return false, fmt.Errorf("sim: Step before Start")
	}
	if ts.finished {
		return false, fmt.Errorf("sim: Step after Finish")
	}
	if len(ts.cursors) == 0 && ts.nParked == 0 {
		return true, nil
	}
	// A callback or the coalescer latched a conservation violation:
	// further simulation is untrustworthy, abort with the diagnostic.
	// Both polls are nil compares — free on the clean path.
	if s.runErr == nil {
		s.runErr = s.coal.Err()
	}
	if s.runErr != nil {
		return false, fmt.Errorf("sim: %w", s.runErr)
	}
	memTick, memOK := s.coal.NextEvent()

	// With no runnable CPU, only memory progress can unpark one.
	if len(ts.cursors) == 0 {
		if !memOK {
			// No runnable core and no memory event: either a response was
			// dropped on the link (watchdog names the doomed line) or this
			// is a genuine scheduling deadlock.
			if werr := s.coal.WatchdogError(); werr != nil {
				return false, fmt.Errorf("sim: %w; links: %s", werr, s.device.DebugLinks())
			}
			return false, s.deadlockError(ts.isParked, ts.parkedTick, ts.parkedFence)
		}
		s.stageMemoryRetire(memTick)
		if memTick > ts.last {
			ts.last = memTick
		}
		s.wake(memTick)
		return false, nil
	}

	cur := ts.cursors[0]
	if memOK && memTick <= cur.tick {
		// Memory events due before the next access: deliver them first.
		s.stageMemoryRetire(memTick)
		s.wake(memTick)
		return false, nil
	}

	cpu := cur.cpu
	a := s.streamAt(cpu, ts.pos[cpu])
	effTick := cur.tick

	switch {
	case a.Kind == trace.FenceOp:
		if s.stageFence(cpu, effTick) {
			return false, nil // parked; cursor not advanced past the fence yet
		}
	case s.outstanding[cpu] >= s.cfg.MaxOutstanding:
		// MLP budget exhausted: park until a response frees a slot.
		s.park(cpu, effTick, false)
		return false, nil
	default:
		s.stageTraceFeed(a, ts.streamOff[cpu]+ts.pos[cpu], effTick)
	}
	if effTick > ts.last {
		ts.last = effTick
	}
	s.advanceCursor(cpu, a, effTick)
	return false, nil
}

// stageMemoryRetire advances the memory pipeline to now, delivering every
// due event: sorter flushes, DMC grouping, CRQ drain into the MSHRs,
// packet submission to the backend and response retirement all happen
// inside coalescer.Advance, which calls back into the System's completion
// handler to return tokens and unblock cores.
func (s *System) stageMemoryRetire(now uint64) {
	s.clockAdvance(now)
	s.coal.Advance(now)
}

// stageFence handles a fence access: flush the coalescer (once per fence),
// then park the core until its outstanding demand misses retire. Reports
// whether the core parked.
func (s *System) stageFence(cpu uint8, effTick uint64) bool {
	ts := &s.ts
	if !ts.fenceSignaled[cpu] {
		s.clockAdvance(effTick)
		s.coal.Fence(effTick)
		ts.fenceSignaled[cpu] = true
	}
	if s.outstanding[cpu] > 0 {
		s.park(cpu, effTick, true)
		return true
	}
	ts.fenceSignaled[cpu] = false
	return false
}

// stageTraceFeed runs access a, at stream position p, through the shared
// LLC — only the lines the private-level filter flags reach it — and
// pushes its LLC misses (and write-backs) into the coalescer's front end,
// then regenerates re-touch misses for lines still in flight.
func (s *System) stageTraceFeed(a *trace.Access, p int32, effTick uint64) {
	s.clockAdvance(effTick)
	s.coal.Advance(effTick)
	s.missBuf = s.llc.ReplayLLC(s.ts.filter, int(p), a, s.missBuf[:0])
	var missedLines [8]uint64 // lines missed by THIS access (small fixed buffer)
	nMissed := 0
	for _, m := range s.missBuf {
		tok := writeBackToken
		if !m.WriteBack {
			tok = s.newToken(m.CPU, m.Line)
			// Register the fill as outstanding until its response.
			s.fetchInsert(m.Line, tok, m.CPU, effTick)
			if nMissed < len(missedLines) {
				missedLines[nMissed] = m.Line
				nMissed++
			}
		}
		s.coal.Push(effTick, coalescer.Request{
			Line:    m.Line,
			Write:   m.Write,
			Payload: m.Payload,
			Token:   tok,
			CPU:     m.CPU,
			// A demand load the core will block on; write-backs and
			// stores retire without waiting.
			Critical: !m.WriteBack && !m.Write,
		})
	}
	s.stageRetouch(a, effTick, &missedLines, nMissed)
}

// stageRetouch regenerates the LLC misses hidden by instant tag-array
// installs. Lines this access touched that hit the tag arrays but whose
// fill is still in flight are additional LLC misses in a real machine —
// when they come from a different core. (Same-core re-touches are absorbed
// by that core's private L1 MSHR subentries and never reach the LLC.)
// Regenerating them lets them merge in the shared MSHRs, as conventional
// MSHR-based coalescing does.
func (s *System) stageRetouch(a *trace.Access, effTick uint64, missedLines *[8]uint64, nMissed int) {
	lineBytes := uint64(s.cfg.Hierarchy.LLC.LineBytes)
	firstLn := a.Addr / lineBytes
	lastLn := (a.End() - 1) / lineBytes
	for ln := firstLn; ln <= lastLn; ln++ {
		fresh := false
		for i := 0; i < nMissed; i++ {
			if missedLines[i] == ln {
				fresh = true
				break
			}
		}
		if fresh {
			continue
		}
		fi, busy := s.fetchLookup(ln)
		if !busy {
			continue
		}
		if fi.cpu == a.CPU && effTick-fi.tick <= sameCoreWindow {
			continue
		}
		lo, hi := ln*lineBytes, (ln+1)*lineBytes
		if a.Addr > lo {
			lo = a.Addr
		}
		if a.End() < hi {
			hi = a.End()
		}
		tok := s.newToken(a.CPU, ln)
		s.coal.Push(effTick, coalescer.Request{
			Line:     ln,
			Write:    a.Kind == trace.Store,
			Payload:  uint32(hi - lo),
			Token:    tok,
			CPU:      a.CPU,
			Critical: a.Kind != trace.Store,
		})
	}
}

// advanceCursor moves the issuing CPU's cursor past the access it just
// completed, carrying its accumulated delay into its next access's tick.
func (s *System) advanceCursor(cpu uint8, a *trace.Access, effTick uint64) {
	ts := &s.ts
	delay := effTick - a.Tick
	ts.pos[cpu]++
	if ts.pos[cpu] < s.streamLen(cpu) {
		ts.cursors[0].tick = s.streamAt(cpu, ts.pos[cpu]).Tick + delay
		cursorFixRoot(ts.cursors)
	} else {
		ts.cursors = cursorPopRoot(ts.cursors)
	}
}

// Finish drains the memory system after the trace has fully issued, runs
// the end-of-run conservation audits and assembles the Result.
func (s *System) Finish() (Result, error) {
	ts := &s.ts
	if !ts.started {
		return Result{}, fmt.Errorf("sim: Finish before Start")
	}
	if ts.finished {
		return Result{}, fmt.Errorf("sim: Finish called twice")
	}
	if len(ts.cursors) > 0 || ts.nParked > 0 {
		return Result{}, fmt.Errorf("sim: Finish with %d runnable and %d parked CPU(s)",
			len(ts.cursors), ts.nParked)
	}
	ts.finished = true
	idle, err := s.coal.Drain(ts.last)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w; links: %s", err, s.device.DebugLinks())
	}
	if s.runErr == nil {
		s.runErr = s.coal.Err()
	}
	if s.runErr != nil {
		return Result{}, fmt.Errorf("sim: %w", s.runErr)
	}
	if s.doneTok != s.pushedTok {
		v := invariant.Violatef(invariant.RuleTokenConservation, idle, s.coal.DebugState(),
			"%d token(s) pushed, %d completed", s.pushedTok, s.doneTok)
		s.check.Record(v)
		return Result{}, fmt.Errorf("sim: token conservation broken: %w", v)
	}
	if s.check != nil {
		// End-of-run conservation audit: every queue drained, every MSHR
		// entry free, every issued packet byte accounted for, every token
		// slot dead. Only reachable with Config.Checks on.
		if cerr := s.coal.CheckDrained(idle); cerr != nil {
			return Result{}, fmt.Errorf("sim: %w", cerr)
		}
		if cerr := s.device.CheckConservation(idle); cerr != nil {
			return Result{}, fmt.Errorf("sim: %w", cerr)
		}
		if v := s.ledger.CheckDrained(idle); v != nil {
			s.check.Record(v)
			return Result{}, fmt.Errorf("sim: %w", v)
		}
	}

	res := Result{
		RuntimeCycles: idle,
		FailedLoads:   s.failedTok,
		Coalescer:     s.coal.Stats(),
		HMC:           s.device.Stats(),
		LLC:           s.llc.Stats(),
		ClockGHz:      s.cfg.ClockGHz,
		LineBytes:     s.cfg.Coalescer.LineBytes,
	}
	res.L1, res.L2 = ts.filter.L1Stats, ts.filter.L2Stats
	ms := s.coal.MSHRStats()
	res.MSHR.Allocations = ms.Allocations
	res.MSHR.MergedTargets = ms.MergedTargets
	res.MSHR.SplitRequests = ms.SplitRequests
	res.MSHR.FullStalls = ms.FullStalls
	res.LLCMisses = res.Coalescer.Requests
	res.HMCRequests = res.Coalescer.HMCRequests
	for _, st := range s.stall {
		res.StallCycles += st
	}
	return res, nil
}

// Tick is the staged loop's high-water tick: the latest point at which a
// core issued or the memory system made unaccompanied progress. Callers
// stepping manually use it to decide when to stop.
func (s *System) Tick() uint64 { return s.ts.last }
