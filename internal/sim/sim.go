// Package sim is the full-system simulator: trace-driven CPUs, the cache
// hierarchy, the memory coalescer (or the conventional MSHR baseline) and
// the HMC device, with end-to-end runtime accounting. It produces every
// metric behind the paper's evaluation figures (8–15).
//
// The execution model: each core replays its access trace; hit latencies
// are hidden by the out-of-order pipeline, but a core stalls when it
// exceeds its miss-level-parallelism budget (MaxOutstanding demand misses)
// or at a fence, and resumes when responses return through the
// coalescer/MSHR path. The run's wall-clock is the tick at which the last
// response lands after the trace drains.
package sim

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"hmccoal/internal/cache"
	"hmccoal/internal/coalescer"
	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
	"hmccoal/internal/mshr"
	"hmccoal/internal/trace"
)

// Mode selects the miss-handling architecture under test (Figure 8); the
// coalescer owns it.
type Mode = coalescer.Mode

// Evaluation modes.
const (
	// Baseline is the conventional MHA: MSHR-based coalescing only, fixed
	// 64 B requests (the paper's comparison point, and Figure 8's
	// "MSHR-based" series).
	Baseline = coalescer.Baseline
	// DMCOnly enables the sorting network and DMC unit but disables MSHR
	// merging (Figure 8's "DMC unit" series).
	DMCOnly = coalescer.DMCOnly
	// TwoPhase is the full memory coalescer.
	TwoPhase = coalescer.TwoPhase
)

// Config assembles the simulated system.
type Config struct {
	Hierarchy cache.HierarchyConfig
	Coalescer coalescer.Config
	HMC       hmc.Config
	// ClockGHz converts cycles to nanoseconds (paper: 3.3).
	ClockGHz float64
	// MaxOutstanding is the per-core demand-miss budget before the core
	// stalls (miss-level parallelism of the out-of-order window).
	MaxOutstanding int
	// Mode selects the miss-handling architecture.
	Mode Mode
	// Variant selects the machine beyond the paper's knobs: memory
	// backend, coalescing front-end and issue policy. Its zero value is
	// the paper's HMC with the two-phase coalescer under FR-FCFS.
	Variant
	// Checks enables the runtime invariant checker across every layer
	// (token ledger, MSHR leak audit, device byte conservation, clock
	// monotonicity). Off by default: the checked quantities are identical
	// either way, so enabling Checks never changes simulation results —
	// it only spends extra bookkeeping to prove the conservation laws.
	Checks bool
}

// Variant is the choice of simulated machine that the paper holds fixed:
// one comparable value that flags, sweep specs, job specs, soak scenarios
// and Config all carry as is. Each field is an enum that spells itself as
// its CLI flag does, in JSON and flag.TextVar alike; structs embed Variant
// so its fields keep their JSON keys, and a zero field is omitted, so
// specs written before a field existed still decode to its default.
type Variant struct {
	// Backend selects the memory device under the coalescer: the HMC
	// model (the zero value), a DDR-like single-channel baseline, or an
	// ideal zero-contention device. The HMC config's geometry and timing
	// fields parameterize every backend; fault injection is HMC-only.
	Backend hmc.Kind `json:"backend,omitempty"`
	// Frontend selects the coalescing front-end between the LLC and the
	// memory backend: the paper's two-phase coalescer (the zero value) or
	// the GPU-style warp coalescing unit.
	Frontend coalescer.Kind `json:"frontend,omitempty"`
	// Sched selects the issue policy inside the front-end: strict
	// FR-FCFS (the zero value) or the heterogeneity-aware scheduler.
	Sched coalescer.Sched `json:"sched,omitempty"`
}

// Validate rejects a field with no named value.
func (v Variant) Validate() error {
	return errors.Join(v.Backend.Validate(), v.Frontend.Validate(), v.Sched.Validate())
}

// RegisterVariantFlags binds -backend, -frontend and -sched on fs to v's
// fields, each defaulting to its current value.
func RegisterVariantFlags(fs *flag.FlagSet, v *Variant) {
	fs.TextVar(&v.Backend, "backend", v.Backend, "memory backend behind the coalescer: "+strings.Join(hmc.Kinds(), ", "))
	fs.TextVar(&v.Frontend, "frontend", v.Frontend, "coalescing front-end between the LLC and the backend: "+strings.Join(coalescer.Kinds(), ", "))
	fs.TextVar(&v.Sched, "sched", v.Sched, "issue policy inside the front-end: "+strings.Join(coalescer.Scheds(), ", "))
}

// DefaultConfig returns the paper's evaluation system: 12 CPUs at 3.3 GHz,
// 16 LLC MSHRs, 8 GB HMC with 256 B blocks, full two-phase coalescer.
func DefaultConfig() Config {
	return Config{
		Hierarchy:      cache.DefaultHierarchyConfig(),
		Coalescer:      coalescer.DefaultConfig(),
		HMC:            hmc.DefaultConfig(),
		ClockGHz:       3.3,
		MaxOutstanding: 16,
		Mode:           TwoPhase,
	}
}

// Validate checks the assembled system configuration, wrapping the
// component validators so a bad flag surfaces as one error from NewSystem
// instead of a panic mid-run.
func (c Config) Validate() error {
	if c.ClockGHz <= 0 {
		return fmt.Errorf("sim: clock %v GHz invalid", c.ClockGHz)
	}
	if c.MaxOutstanding <= 0 {
		return fmt.Errorf("sim: MaxOutstanding must be positive")
	}
	if err := c.Hierarchy.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Coalescer.LineBytes != c.Hierarchy.LLC.LineBytes {
		return fmt.Errorf("sim: coalescer line size %d != LLC line size %d",
			c.Coalescer.LineBytes, c.Hierarchy.LLC.LineBytes)
	}
	if err := errors.Join(c.Coalescer.Validate(), c.Mode.Validate()); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.HMC.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Variant.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// Result carries everything a run produced.
type Result struct {
	// RuntimeCycles is the end-to-end wall clock of the run.
	RuntimeCycles uint64
	// LLCMisses is the number of requests that left the LLC (including
	// write-backs); HMCRequests is how many reached the device.
	LLCMisses   uint64
	HMCRequests uint64
	// StallCycles sums core stall time (MLP limit + fences).
	StallCycles uint64
	// FailedLoads counts demand misses whose data never arrived intact:
	// the link retry protocol and the coalescer's span retries both gave
	// up, and the waiter was completed with the error bit. Zero unless
	// fault injection is enabled.
	FailedLoads uint64

	Coalescer coalescer.Stats
	MSHR      struct {
		Allocations, MergedTargets, SplitRequests, FullStalls uint64
	}
	HMC hmc.Stats
	LLC cache.Stats
	L1  cache.Stats
	L2  cache.Stats

	// ClockGHz echoes the configuration for ns conversions.
	ClockGHz float64
	// LineBytes echoes the cache line size for raw-traffic pricing.
	LineBytes uint32
}

// CoalescingEfficiency is the Figure 8 metric.
func (r Result) CoalescingEfficiency() float64 {
	if r.LLCMisses == 0 {
		return 0
	}
	return 1 - float64(r.HMCRequests)/float64(r.LLCMisses)
}

// RawTransferredBytes is the traffic the conventional MHA would move for
// the same miss stream: one line-sized packet plus 32 B control per LLC
// request.
func (r Result) RawTransferredBytes() uint64 {
	return r.LLCMisses * (uint64(r.LineBytes) + hmc.ControlBytes)
}

// RawBandwidthEfficiency is Figure 9's "raw" series: useful payload over
// the conventional fixed-64 B transfer volume.
func (r Result) RawBandwidthEfficiency() float64 {
	raw := r.RawTransferredBytes()
	if raw == 0 {
		return 0
	}
	return float64(r.Coalescer.PayloadBytes) / float64(raw)
}

// CoalescedBandwidthEfficiency is Figure 9's "coalesced" series (Equation 1
// over the actual device traffic).
func (r Result) CoalescedBandwidthEfficiency() float64 {
	if r.HMC.TransferredBytes == 0 {
		return 0
	}
	return float64(r.Coalescer.PayloadBytes) / float64(r.HMC.TransferredBytes)
}

// BandwidthSavedBytes is Figure 11's metric: traffic avoided versus the
// conventional MHA.
func (r Result) BandwidthSavedBytes() int64 {
	return int64(r.RawTransferredBytes()) - int64(r.HMC.TransferredBytes)
}

// RuntimeNs converts the wall clock to nanoseconds.
func (r Result) RuntimeNs() float64 {
	if r.ClockGHz <= 0 {
		return 0
	}
	return float64(r.RuntimeCycles) / r.ClockGHz
}

// System is a runnable simulated machine.
type System struct {
	cfg     Config
	llc     *cache.Cache // the shared LLC; the private levels are the trace's PrivateFilter
	missBuf []cache.Miss // reused by every ReplayLLC, so the hot path is allocation-free
	device  *hmc.Device
	coal    *coalescer.Coalescer

	outstanding []int    // demand misses in flight per CPU
	nextToken   uint64   // demand-miss token allocator
	tokenCPU    []uint8  // token → CPU (ring; tokens complete in bounded time)
	tokenLine   []uint64 // token → line, for outstanding-line bookkeeping
	stall       []uint64 // accumulated stall per CPU
	pushedTok   uint64   // demand tokens handed to the coalescer
	doneTok     uint64   // demand tokens returned by completions
	failedTok   uint64   // demand tokens completed with the error bit set

	// fetching tracks cache lines whose fill is still in flight. The tag
	// arrays install lines instantly (internal/cache), but until the
	// response returns, a core touching such a line has really produced
	// another LLC miss — the misses that conventional MSHR coalescing
	// absorbs as subentries. The simulator regenerates them so the
	// Figure 8 MSHR-based series is faithful: always for other cores, and
	// for the fetching core itself only once the touch comes from a later
	// instruction window (earlier touches are deduplicated by the core's
	// private L1 MSHR subentries and never reach the LLC).
	//
	// The table is open-addressed and keyed by line; see fetchtable.go.
	fetching fetchTable

	// Invariant-checking state (Config.Checks). check collects violations
	// across every layer; ledger proves the exactly-once token law; runErr
	// latches the first violation hit inside a callback so the event loop
	// can abort at its next poll — one nil compare per iteration. All nil
	// with checks off except runErr, which the former panic sites also use.
	check     *invariant.Checker
	ledger    *invariant.TokenLedger
	runErr    error
	lastClock uint64 // latest tick handed to the memory system (monotonicity)

	// ts is the staged tick loop's scheduling state (stages.go), armed by
	// Start and advanced by Step. Held by value: its slices are the only
	// per-run allocations.
	ts tickState
}

// fetchInfo records who started an outstanding line fill and when.
type fetchInfo struct {
	token uint64
	cpu   uint8
	tick  uint64
}

// sameCoreWindow is the span, in cycles, within which a core's repeat
// touches to a line it is already fetching stay inside its own L1 MSHR
// (one out-of-order instruction window).
const sameCoreWindow = 48

const writeBackToken = ^uint64(0)

// NewSystem builds a system from cfg and wires its layers once: the
// coalescer hands its packets straight to the device's SubmitPacket.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.Hierarchy.LLC)
	if err != nil {
		return nil, err
	}
	d, err := hmc.NewDevice(cfg.Backend, cfg.HMC)
	if err != nil {
		return nil, err
	}
	s := &System{llc: llc, device: d}
	if s.coal, err = coalescer.New(cfg.Coalescer, cfg.Mode, cfg.Frontend, cfg.Sched, cfg.Hierarchy.CPUs, d.SubmitPacket, s.complete); err != nil {
		return nil, err
	}
	s.init(cfg)
	return s, nil
}

// Reset returns a finished, abandoned mid-run or unused System to the
// freshly built state for cfg. Every layer resets in place — the LLC's
// multi-megabyte tag array, the device, the coalescer with its MSHR file,
// and the token ring — instead of being rebuilt through the allocator.
// cfg must keep the CPU count and LLC the System was built with;
// everything else — the private L1/L2 shapes, mode, backend, coalescer
// tuning, fault plan, checks — may change between runs. A reset System
// produces byte-identical results to one built fresh from the same cfg:
// this is what lets a Pool hand one System to job after job without
// paying NewSystem per job. After an error the System must not be used
// again.
func (s *System) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !s.fits(cfg) {
		return fmt.Errorf("sim: Reset with a different CPU count or LLC (build a fresh System)")
	}
	s.llc.Reset()
	if err := s.device.Reset(cfg.Backend, cfg.HMC); err != nil {
		return err
	}
	if err := s.coal.Reset(cfg.Coalescer, cfg.Mode, cfg.Frontend, cfg.Sched, cfg.Hierarchy.CPUs); err != nil {
		return err
	}
	s.init(cfg)
	return nil
}

// fits reports whether Reset can take the System to cfg: a System holds
// the shared LLC and per-CPU state, not the private levels, whose filter
// each run looks up from the cfg Reset installs.
func (s *System) fits(cfg Config) bool {
	return cfg.Hierarchy.CPUs == s.cfg.Hierarchy.CPUs && cfg.Hierarchy.LLC == s.cfg.Hierarchy.LLC
}

// init zeroes the run state around the layers NewSystem built and Reset
// returned to their built state, and attaches the invariant checker. The
// flat arrays (token ring, fetch table, per-CPU accounting) are reused
// when their required size is unchanged.
func (s *System) init(cfg Config) {
	s.cfg = cfg
	if len(s.outstanding) == cfg.Hierarchy.CPUs {
		clear(s.outstanding)
		clear(s.stall)
	} else {
		s.outstanding = make([]int, cfg.Hierarchy.CPUs)
		s.stall = make([]uint64, cfg.Hierarchy.CPUs)
	}
	// Token ring: bounded by the maximum number of simultaneously live
	// demand misses (MLP budget × CPUs, plus coalescer buffering slack).
	// The ring length is semantic (token slots are indexed modulo it), so
	// reuse requires an exact size match.
	ring := (cfg.MaxOutstanding + cfg.Coalescer.Width + cfg.Coalescer.MSHR.Entries*8) * cfg.Hierarchy.CPUs
	if len(s.tokenCPU) == ring {
		clear(s.tokenCPU)
	} else {
		s.tokenCPU = make([]uint8, ring)
		s.tokenLine = make([]uint64, ring)
	}
	for i := range s.tokenLine {
		s.tokenLine[i] = fetchDone // every slot starts free
	}
	// Live fetch-table entries are bounded by the demand-miss budget. A
	// previous run's table can be cleared in place as long as it is at
	// least as big as a fresh one would be (size only affects probe cost,
	// never results).
	if want := newFetchTableSize(cfg.MaxOutstanding * cfg.Hierarchy.CPUs); len(s.fetching.slots) >= want {
		clear(s.fetching.slots)
		s.fetching.used = 0
	} else {
		s.fetching = newFetchTable(cfg.MaxOutstanding * cfg.Hierarchy.CPUs)
	}
	s.nextToken = 0
	s.pushedTok, s.doneTok, s.failedTok = 0, 0, 0
	s.runErr = nil
	s.lastClock = 0
	s.ts = tickState{}
	s.check, s.ledger = nil, nil
	if cfg.Checks {
		s.check = invariant.New()
		s.ledger = invariant.NewTokenLedger(ring)
		s.coal.SetChecker(s.check)
		s.device.SetChecker(s.check)
	}
}

// complete is the coalescer's CompleteFunc: it returns each demand
// waiter's token to its core, skipping write-backs.
func (s *System) complete(tick uint64, subs []mshr.Sub, fault bool) {
	for _, sub := range subs {
		if sub.Token == writeBackToken {
			continue
		}
		idx := sub.Token // a ring slot: newToken hands out no other
		if s.ledger != nil {
			if v := s.ledger.Complete(idx, tick); v != nil {
				s.check.Record(v)
				if s.runErr == nil {
					s.runErr = v
				}
			}
		}
		s.outstanding[s.tokenCPU[idx]]--
		s.doneTok++
		if fault {
			// The retry budget ran out and the waiter got an error
			// response instead of data. The core still unblocks (the
			// fault is delivered, not dropped) but the failure is
			// accounted.
			s.failedTok++
		}
		// The line's fill has arrived: stamping the token's ring slot
		// invalidates the line's fetch-table entry (if this token owns
		// it) without touching the table itself.
		s.tokenLine[idx] = fetchDone
	}
}

// Checker returns the attached invariant checker, or nil when
// Config.Checks is off. Callers inspect it for the violations behind a
// failed run.
func (s *System) Checker() *invariant.Checker { return s.check }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Run replays the trace to completion and returns the run's metrics: it
// arms the staged tick loop (Start), steps it until the trace has fully
// issued, and drains the memory system (Finish). The trace must be ordered
// by tick (as produced by internal/workloads). A System runs once per
// Start: Reset it, or take one from a Pool, to run again.
//
// Each Step interleaves two event sources in global time order: the
// per-CPU access cursors (merged through a heap on effective issue tick)
// and the memory system's own events (timeouts, packet readiness,
// responses). A core that exhausts its MLP budget or waits on a fence is
// parked and re-armed by memory progress; crucially the memory system is
// never advanced past a runnable core's next access, so causality holds.
// See stages.go for the individual stages.
func (s *System) Run(accs []trace.Access) (Result, error) {
	if err := s.Start(accs); err != nil {
		return Result{}, err
	}
	return s.runToEnd()
}

// RunIndexed is Run over an indexed trace (see StartIndexed).
func (s *System) RunIndexed(idx *TraceIndex) (Result, error) {
	if err := s.StartIndexed(idx); err != nil {
		return Result{}, err
	}
	return s.runToEnd()
}

// runToEnd steps a started System until its trace has fully issued, then
// drains it.
func (s *System) runToEnd() (Result, error) {
	for {
		done, err := s.Step()
		if err != nil {
			return Result{}, err
		}
		if done {
			break
		}
	}
	return s.Finish()
}

// newToken allocates a demand-miss token for cpu waiting on line: the next
// ring slot in counter order, stepping over slots whose miss is still
// outstanding. A wrap onto a live slot is rare — it takes a miss that
// waits while a whole ring of later misses is issued, which the hetero
// scheduler can cause by deferring a bandwidth-hog lane — and reusing the
// slot would hand the old miss's completion to the new waiter. A slot
// whose response was dropped can never complete, so it is reused.
func (s *System) newToken(cpu uint8, line uint64) uint64 {
	ring := uint64(len(s.tokenCPU))
	tok := s.nextToken % ring
	for skipped := uint64(0); skipped < ring && s.tokenLine[tok] != fetchDone && !s.forfeitIfDoomed(tok); skipped++ {
		s.nextToken++
		tok = s.nextToken % ring
	}
	s.nextToken++
	s.tokenCPU[tok] = cpu
	s.tokenLine[tok] = line
	s.outstanding[cpu]++
	s.pushedTok++
	if s.ledger != nil {
		// The allocator only lands on a live slot if every slot is live,
		// which the ring's sizing rules out: that is a violation.
		if v := s.ledger.Issue(tok, s.lastClock); v != nil {
			s.check.Record(v)
			if s.runErr == nil {
				s.runErr = v
			}
		}
	}
	return tok
}

// forfeitIfDoomed reports whether ring slot tok belongs to a waiter whose
// response was dropped, forfeiting the slot in the ledger if so. O(inflight)
// but only reached when the allocator wraps onto a live slot.
func (s *System) forfeitIfDoomed(tok uint64) bool {
	doomed := false
	s.coal.DoomedTokens(func(token uint64) {
		if token == tok {
			doomed = true
		}
	})
	if doomed && s.ledger != nil {
		s.ledger.Forfeit(tok)
	}
	return doomed
}

// clockAdvance audits the deterministic-clock monotonicity law (checks on
// only): ticks handed to the memory system must never decrease. The
// coalescer silently clamps a backwards tick, so without the checker a
// scheduling bug would warp results instead of failing.
func (s *System) clockAdvance(now uint64) {
	if s.check != nil && now < s.lastClock {
		v := invariant.Violatef(invariant.RuleClockMonotone, now, s.coal.DebugState(),
			"memory clock ran backwards: %d after %d", now, s.lastClock)
		s.check.Record(v)
		if s.runErr == nil {
			s.runErr = v
		}
	}
	if now > s.lastClock {
		s.lastClock = now
	}
}

// lowestParked returns the lowest-numbered parked CPU, so deadlock
// diagnostics name the same core on every run of the same trace.
func lowestParked(isParked []bool) int {
	for cpu, p := range isParked {
		if p {
			return cpu
		}
	}
	return 0
}

// deadlockError renders the no-progress diagnostic. The report is
// deterministic: it names the lowest-numbered parked CPU regardless of the
// order in which cores parked, so repeated runs of the same deadlocking
// trace produce byte-identical messages.
func (s *System) deadlockError(isParked []bool, parkedTick []uint64, parkedFence []bool) error {
	cpu := lowestParked(isParked)
	pend, crq := s.coal.QueueDepths()
	return fmt.Errorf(
		"sim: deadlock: CPU %d parked (fence=%v) at %d with no memory events; outstanding=%v tokens=%d/%d pending=%d crq=%d: %s",
		cpu, parkedFence[cpu], parkedTick[cpu], s.outstanding, s.doneTok, s.pushedTok, pend, crq, s.coal.DebugState())
}

// cursor orders per-CPU trace positions by effective issue tick.
type cursor struct {
	tick uint64
	cpu  uint8
}

// The cursor heap is hand-inlined (min-heap on (tick, cpu)) rather than
// going through container/heap: the interface indirection there boxes every
// pushed cursor onto the garbage-collected heap, and this is the
// simulator's inner scheduling loop. The (tick, cpu) order is total — one
// cursor per CPU — so the pop sequence is independent of the internal
// array layout.

func cursorLess(a, b cursor) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.cpu < b.cpu
}

// cursorPush inserts c and returns the updated heap slice.
func cursorPush(h []cursor, c cursor) []cursor {
	h = append(h, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !cursorLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// cursorFixRoot restores heap order after the root's tick changed in place.
func cursorFixRoot(h []cursor) {
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < len(h) && cursorLess(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && cursorLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// cursorPopRoot removes the minimum cursor and returns the shrunk slice.
func cursorPopRoot(h []cursor) []cursor {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	cursorFixRoot(h)
	return h
}

// Summary renders the run's key metrics as a human-readable block.
func (r Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime                %12.1f µs (%d cycles)\n", r.RuntimeNs()/1000, r.RuntimeCycles)
	fmt.Fprintf(&b, "LLC requests           %12d (misses+write-backs)\n", r.LLCMisses)
	fmt.Fprintf(&b, "HMC requests           %12d\n", r.HMCRequests)
	fmt.Fprintf(&b, "coalescing efficiency  %11.2f%%\n", 100*r.CoalescingEfficiency())
	fmt.Fprintf(&b, "  first-phase merges   %12d\n", r.Coalescer.FirstPhaseMerges)
	fmt.Fprintf(&b, "  second-phase merges  %12d\n", r.MSHR.MergedTargets)
	fmt.Fprintf(&b, "  bypassed             %12d\n", r.Coalescer.Bypassed)
	fmt.Fprintf(&b, "sorter flushes         %12d (full %d, timeout %d, fence %d, drain %d)\n",
		r.Coalescer.Batches, r.Coalescer.FullFlushes, r.Coalescer.TimeoutFlushes,
		r.Coalescer.FenceFlushes, r.Coalescer.DrainFlushes)
	fmt.Fprintf(&b, "transferred            %12.2f MB (%.2f MB control)\n",
		float64(r.HMC.TransferredBytes)/1e6, float64(r.HMC.ControlBytes())/1e6)
	fmt.Fprintf(&b, "bandwidth efficiency   %11.2f%% (device, Equation 1)\n", 100*r.HMC.BandwidthEfficiency())
	fmt.Fprintf(&b, "row activations        %12d (%d conflicts)\n", r.HMC.RowActivations, r.HMC.BankConflicts)
	fmt.Fprintf(&b, "core stall cycles      %12d\n", r.StallCycles)
	// Fault-injection lines render only when something actually went wrong
	// on the link, so clean-run summaries stay byte-identical with faults
	// compiled in but disabled.
	if r.FaultsObserved() {
		fmt.Fprintf(&b, "link retries           %12d (%d retrains, %.2f MB retransmitted)\n",
			r.HMC.Retries, r.HMC.RetrainEvents, float64(r.HMC.RetransmittedBytes)/1e6)
		fmt.Fprintf(&b, "poisoned responses     %12d (%d dropped)\n",
			r.HMC.PoisonedResponses, r.HMC.DroppedResponses)
		fmt.Fprintf(&b, "packet retries         %12d (%d failed loads)\n",
			r.Coalescer.RetriedPackets, r.FailedLoads)
		fmt.Fprintf(&b, "degraded mode          %12d cycles (%d entries, %d splits)\n",
			r.Coalescer.DegradedCycles, r.Coalescer.DegradedEntries, r.Coalescer.DegradedSplits)
	}
	return b.String()
}

// FaultsObserved reports whether the run saw any injected link fault. All
// the counters it checks stay zero with fault injection disabled.
func (r Result) FaultsObserved() bool {
	return r.HMC.Retries > 0 || r.HMC.RetrainEvents > 0 ||
		r.HMC.PoisonedResponses > 0 || r.HMC.DroppedResponses > 0 ||
		r.Coalescer.RetriedPackets > 0 || r.Coalescer.DegradedCycles > 0 ||
		r.Coalescer.DegradedEntries > 0 || r.FailedLoads > 0
}
