// Package coalescer implements the paper's memory coalescer (§3): the unit
// between the shared LLC and the memory backend that batches LLC misses
// into large HMC packets. It works in two stages.
//
// A gather stage forms packets. Two are provided:
//
//	two-phase  the paper's CPU coalescer: an input buffer feeding a
//	           pipelined odd–even merge sorting network and the DMC unit,
//	           which fuses adjacent requests (first-phase coalescing), plus
//	           the §4.2 idle bypass — the default
//	warp       a GPU-style coalescing unit: per-lane warp buffers that
//	           close on width or timeout and merge at block granularity in
//	           first-touch order, as in GPGPU SIMT front-ends
//
// One issue stage, shared by both, takes the packets through the
// coalesced request queue (CRQ) into the dynamic MSHRs (second-phase
// coalescing) and on to memory: issue scheduling (strict FR-FCFS or the
// heterogeneity-aware policy), span-level retry with backoff, degraded
// mode, the dropped-response watchdog and the conservation checks.
//
// The coalescer is tick-driven and single-threaded: the system simulator
// pushes LLC misses in non-decreasing tick order and the coalescer reports
// each memory request as an HMC packet through the IssueFunc callback —
// the device's own SubmitPacket — and data returns through the
// CompleteFunc callback. All latency accounting (Figures 12–14) happens here.
package coalescer

import (
	"errors"
	"fmt"

	"hmccoal/internal/enum"
	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
	"hmccoal/internal/mshr"
	"hmccoal/internal/sortnet"
)

// ErrWatchdog marks the Drain diagnostic for responses that will never
// arrive (dropped on a faulty link). Callers that inject faults use
// errors.Is(err, ErrWatchdog) to tell this expected outcome apart from a
// conservation violation.
var ErrWatchdog = errors.New("watchdog")

// Kind selects the gather stage. The zero value is the two-phase
// coalescer, so configurations that predate front-end selection are
// unchanged.
type Kind int

// Gather stages.
const (
	// KindTwoPhase is the paper's sorter + DMC gather.
	KindTwoPhase Kind = iota
	// KindWarp is the GPU-style warp coalescing unit.
	KindWarp
)

// kinds spells every Kind, in iota order, as the CLI -frontend flag does.
var kinds = enum.Table[Kind]{Type: "Kind", Unknown: "coalescer: unknown frontend", Names: []string{"two-phase", "warp"}}

// String names the kind as the CLI -frontend flag spells it.
func (k Kind) String() string { return kinds.String(k) }

// Validate rejects kinds no gather stage exists for.
func (k Kind) Validate() error { return kinds.Validate(k) }

// MarshalText and UnmarshalText spell the kind as the -frontend flag
// does, for JSON and flag.TextVar; "" parses as the two-phase default.
func (k Kind) MarshalText() ([]byte, error)     { return kinds.MarshalText(k) }
func (k *Kind) UnmarshalText(text []byte) error { return kinds.UnmarshalText(k, text) }

// ParseKind maps a -frontend flag value to a Kind. The empty string means
// the default two-phase coalescer.
func ParseKind(s string) (Kind, error) { return kinds.Parse(s) }

// Kinds lists the recognized front-end names for usage messages.
func Kinds() []string { return kinds.List() }

// Sched selects the issue policy the CRQ head uses when dispatching
// packets into the MSHRs. The zero value is the strict first-ready FCFS
// order every configuration used before schedulers existed.
type Sched int

// Issue policies.
const (
	// SchedFRFCFS services the CRQ strictly in FIFO arrival order, issuing
	// the head as soon as it is ready — the paper's implicit policy.
	SchedFRFCFS Sched = iota
	// SchedHetero is the heterogeneity-aware policy: among ready packets it
	// prefers criticality-hinted requests (demand loads a core blocks on)
	// and, within a criticality class, the lane that has moved the fewest
	// bytes so far — deprioritizing bandwidth-hog cores so a streaming
	// accelerator cannot starve latency-sensitive CPUs. Ties fall back to
	// FIFO order, keeping the policy deterministic.
	SchedHetero
)

// scheds spells every Sched, in iota order, as the CLI -sched flag does.
var scheds = enum.Table[Sched]{Type: "Sched", Unknown: "coalescer: unknown scheduler", Names: []string{"frfcfs", "hetero"}}

// String names the scheduler as the CLI -sched flag spells it.
func (s Sched) String() string { return scheds.String(s) }

// Validate rejects scheduler values no issue path exists for.
func (s Sched) Validate() error { return scheds.Validate(s) }

// MarshalText and UnmarshalText spell the scheduler as the -sched flag
// does, for JSON and flag.TextVar; "" parses as the FR-FCFS default.
func (s Sched) MarshalText() ([]byte, error)     { return scheds.MarshalText(s) }
func (s *Sched) UnmarshalText(text []byte) error { return scheds.UnmarshalText(s, text) }

// ParseSched maps a -sched flag value to a Sched. The empty string means
// the default FR-FCFS policy.
func ParseSched(s string) (Sched, error) { return scheds.Parse(s) }

// Scheds lists the recognized scheduler names for usage messages.
func Scheds() []string { return scheds.List() }

// Mode selects the miss-handling architecture under test (Figure 8): which
// of the two coalescing phases run.
type Mode int

// Evaluation modes.
const (
	// Baseline is the conventional MHA: MSHR-based coalescing only, fixed
	// 64 B requests (the paper's comparison point, and Figure 8's
	// "MSHR-based" series). Requests skip the gather stage.
	Baseline Mode = iota
	// DMCOnly enables the gather stage (first phase) but disables MSHR
	// merging (Figure 8's "DMC unit" series).
	DMCOnly
	// TwoPhase is the full memory coalescer.
	TwoPhase
)

// modes names every Mode, in iota order, as Figure 8 does.
var modes = enum.Table[Mode]{Type: "Mode", Unknown: "coalescer: unknown mode", Names: []string{"MSHR-based", "DMC-only", "two-phase"}}

// String names the mode as in Figure 8.
func (m Mode) String() string { return modes.String(m) }

// Validate rejects modes with no architecture behind them.
func (m Mode) Validate() error { return modes.Validate(m) }

// Fixed timing and geometry of the coalescer. The paper evaluates one
// value of each, so they are constants rather than Config fields.
const (
	// CompareCycles and MergeCycles price the DMC unit's operations
	// (§5.3.3: both 2 cycles); the warp gather prices its block lookup
	// the same way.
	CompareCycles, MergeCycles = 2, 2
	// BlockBytes is the largest HMC packet and the boundary a packet may
	// not cross (HMC 2.1: 256 B).
	BlockBytes = hmc.MaxRequestBytes
	// BypassRearmCycles is how long the memory system must stay fully idle
	// before the stage select re-arms the §4.2 bypass. §4.2 aims the bypass
	// at program start and blocking calls (I/O, thread communication), not
	// at sub-microsecond traffic valleys.
	BypassRearmCycles = 2048
	// RetryBackoffCycles is the delay before a failed (poisoned) packet's
	// span is re-issued; it doubles per attempt up to RetryBackoffCap.
	RetryBackoffCycles, RetryBackoffCap = 64, 4096
	// MaxPacketRetries bounds re-issues per failed span; a span that still
	// fails past it completes with its error bit set so waiters are never
	// stranded.
	MaxPacketRetries = 8
	// DegradeWindow and DegradeThreshold govern degraded mode: once
	// DegradeThreshold of the last DegradeWindow issued packets saw a link
	// error, packets are capped at one cache line — a retransmitted 256 B
	// packet costs 17 FLITs, so degradation trades coalescing efficiency for
	// retry cost. The mode exits when the window holds half as many errors.
	DegradeWindow, DegradeThreshold = 64, 16
)

// Config parameterizes the coalescer. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// Width is the sorting-network sequence width n (paper: 16).
	Width int
	// TimeoutCycles is how long a partially filled sequence may wait for
	// more LLC requests before it is force-flushed into the sorter
	// (paper §3.3; Figure 14 sweeps 16–28 cycles).
	TimeoutCycles uint64
	// Fold selects the sorting pipeline organization (§4.1).
	Fold sortnet.Fold
	// LineBytes is the cache line size (64 B), a power of two no larger
	// than BlockBytes.
	LineBytes uint32
	// MSHR sizes the dynamic MSHR file (16 entries in the paper; the CRQ
	// is sized to match).
	MSHR mshr.Config
	// Bypass enables the §4.2 idle path: while the CRQ is empty, the input
	// buffer is empty and MSHRs are free, raw requests skip the sorter and
	// go straight to the MSHRs.
	Bypass bool
	// AdaptiveTimeout implements the paper's §5.3.3 conclusion that "it is
	// ideal to equate the timeout with the average coalescing latency": the
	// input-buffer timeout tracks an exponential moving average of the
	// per-sequence coalescing cost (sorting + DMC), clamped to
	// [TimeoutCycles/2, 4×TimeoutCycles]. TimeoutCycles seeds the average.
	AdaptiveTimeout bool
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Width:         16,
		TimeoutCycles: 24,
		Fold:          sortnet.PerStage,
		LineBytes:     64,
		MSHR:          mshr.DefaultConfig(),
		Bypass:        true,
	}
}

// Request is one line-granular LLC miss or write-back entering the
// coalescer.
type Request struct {
	Line    uint64 // absolute cache line number
	Write   bool
	Payload uint32 // useful bytes wanted from the line
	Token   uint64 // opaque completion token returned to the caller
	// CPU is the issuing lane, the heterogeneity-aware scheduler's
	// fairness key. Critical is the trace layer's optional hint that a core
	// is blocked on this request (a demand load). Both are ignored — and
	// free — under the default FR-FCFS policy.
	CPU      uint8
	Critical bool
}

// IssueFunc dispatches one memory request — the HMC packet for an
// allocated MSHR entry — to the device at the given tick and reports how
// the transaction ended. (*hmc.Device).SubmitPacket is one.
type IssueFunc func(tick uint64, req hmc.Request) (hmc.Completion, error)

// CompleteFunc delivers a response: the entry's waiters identified by
// their tokens, at the completion tick. fault reports that the data never
// arrived — the span exhausted its retry budget and the waiters observe a
// memory error instead of a fill.
type CompleteFunc func(tick uint64, subs []mshr.Sub, fault bool)

// Coalescer is the memory coalescer: a gather stage feeding the shared
// issue stage.
type Coalescer struct {
	cfg      Config
	mode     Mode
	kind     Kind
	file     mshr.File
	issue    IssueFunc
	complete CompleteFunc

	// gather is the first stage: &c.sorter under two-phase, a *warpGather
	// under warp. The sorter is held by value so the default coalescer is
	// a single allocation.
	gather gather
	sorter sortGather

	// The CRQ is a power-of-two ring buffer: crqBuf[crqHead] is the FIFO
	// head and crqLen its occupancy. Popping the head is an index bump, not
	// a reslice, so the backing array is reused for the whole run.
	crqBuf  []packet
	crqHead int
	crqLen  int

	// targetPool recycles packet target slices retired from the CRQ back
	// to the gather stage.
	targetPool [][]mshr.Target

	inflight    []completion
	freedAt     uint64 // tick of the most recent MSHR entry release
	lastIssue   uint64 // tick of the most recent memory dispatch
	lastAdvance uint64 // latest tick Advance has processed
	fillStart   uint64 // start of the current CRQ fill episode
	fillCount   int    // packets supplied in the current episode
	stats       Stats
	linesBlock  uint64 // lines per HMC block

	// headStalls is the FullStalls delta of the CRQ head's last Insert if
	// that Insert merged and issued nothing, else 0. Until the next entry
	// release every retry would repeat it exactly, so drainCRQ only counts
	// the stalls. Derived state: cleared whenever the file or the head
	// changes.
	headStalls uint64

	// laneBytes is the heterogeneity-aware scheduler's per-lane issued-byte
	// account, indexed by Request.CPU. It is nil under FR-FCFS, so the
	// default configuration allocates and pays nothing for scheduling.
	laneBytes []uint64

	// Fault-recovery state. retryQ is a min-heap of failed spans awaiting
	// re-issue after backoff, ordered by (ready, seq) so retries release
	// deterministically. faultWin is the degraded-mode sliding window over
	// issue outcomes; it is allocated lazily on the first observed link
	// error so the no-fault path stays allocation-identical.
	retryQ     []packet
	retrySeq   uint64
	faultWin   []bool
	faultPos   int
	faultCnt   int
	degraded   bool
	degradedAt uint64 // tick degraded mode was last entered

	// check is the optional invariant checker (nil = disabled, free).
	// viol latches the first conservation violation: the former panic
	// sites record here and the event loop aborts on the next poll.
	check *invariant.Checker
	viol  error
}

// gather is the coalescer's first stage. It buffers LLC requests and
// closes them into packets for the issue stage (enqueuePacket); each
// implementation decides when it drains the CRQ, so both keep the exact
// issue timing they were calibrated with.
type gather interface {
	// push buffers one request arriving at now. The issue stage has
	// already advanced to now and counted the request.
	push(now uint64, r Request)
	// fence closes every open sequence for a memory fence at now.
	fence(now uint64)
	// expire closes every sequence whose timeout fell due by now.
	expire(now uint64)
	// drain closes every open sequence at the end of a run.
	drain(now uint64)
	// nextExpiry returns the earliest timeout of an open sequence, or ^0.
	nextExpiry() uint64
	// buffered counts the requests waiting in open sequences.
	buffered() int
}

// pendingReq is an input-buffer slot: the request plus its arrival tick,
// needed for the per-request coalescer latency of Figure 14.
type pendingReq struct {
	Request
	pushTick uint64
}

type packet struct {
	baseLine uint64
	lines    int
	write    bool
	targets  []mshr.Target
	ready    uint64 // tick the packet entered the CRQ
	blocked  bool   // a previous insert attempt found the file packed
	attempt  int    // how many times this span has already failed
	seq      uint64 // retry-queue tie-break, in failure order
	cpu      uint8  // issuing lane (scheduler fairness key)
	critical bool   // criticality hint carried from the request
}

// Validate checks the configuration without building anything. New calls
// it; embedding configs can call it early so a bad sorter width or MSHR
// geometry surfaces as an error at construction, never a panic later.
func (cfg Config) Validate() error {
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 || cfg.LineBytes > BlockBytes {
		return fmt.Errorf("coalescer: line size %d is not a power of two ≤ %d", cfg.LineBytes, BlockBytes)
	}
	if cfg.Width < 2 || cfg.Width&(cfg.Width-1) != 0 {
		return fmt.Errorf("coalescer: sorter width %d is not a power of two ≥ 2", cfg.Width)
	}
	return cfg.MSHR.Validate()
}

// New builds a coalescer for the given architecture, gather stage and
// issue policy. lanes is the number of request sources (CPUs); the warp
// gather keeps one open warp buffer per lane. issue and complete must be
// non-nil.
func New(cfg Config, mode Mode, kind Kind, sched Sched, lanes int, issue IssueFunc, complete CompleteFunc) (*Coalescer, error) {
	if issue == nil || complete == nil {
		return nil, fmt.Errorf("coalescer: nil callback")
	}
	c := &Coalescer{issue: issue, complete: complete}
	if err := c.Reset(cfg, mode, kind, sched, lanes); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns c to exactly the coalescer New builds from the same
// arguments and c's callbacks. It keeps the target free list, the CRQ ring,
// both heaps and the MSHR file's arrays, the sorting network while Width
// is unchanged and the warp lane buffers while the kind stays warp. The
// attached checker is detached. After an error c is unusable until a Reset
// succeeds.
func (c *Coalescer) Reset(cfg Config, mode Mode, kind Kind, sched Sched, lanes int) error {
	if err := errors.Join(cfg.Validate(), mode.Validate(), kind.Validate(), sched.Validate()); err != nil {
		return err
	}
	// The file owns second-phase coalescing: it merges unless the mode
	// leaves MSHR merging out.
	if err := c.file.Reset(cfg.MSHR, BlockBytes/uint64(cfg.LineBytes), mode != DMCOnly); err != nil {
		return err
	}
	warp, _ := c.gather.(*warpGather)
	laneBytes := c.laneBytes
	*c = Coalescer{
		cfg:        cfg,
		mode:       mode,
		kind:       kind,
		file:       c.file,
		issue:      c.issue,
		complete:   c.complete,
		sorter:     c.sorter,
		crqBuf:     c.crqBuf,
		targetPool: c.targetPool,
		inflight:   c.inflight[:0],
		linesBlock: BlockBytes / uint64(cfg.LineBytes),
		retryQ:     c.retryQ[:0],
	}
	switch kind {
	case KindTwoPhase:
		if err := c.sorter.reset(c); err != nil {
			return err
		}
		c.gather = &c.sorter
	case KindWarp:
		if warp == nil {
			warp = &warpGather{c: c}
		}
		warp.reset(lanes)
		c.gather = warp
	}
	if sched == SchedHetero {
		c.laneBytes = append(laneBytes[:0], make([]uint64, 256)...) // full uint8 lane space
	}
	return nil
}

// getTargets hands out an empty target slice, recycled when possible.
func (c *Coalescer) getTargets() []mshr.Target {
	if n := len(c.targetPool); n > 0 {
		t := c.targetPool[n-1]
		c.targetPool = c.targetPool[:n-1]
		return t[:0]
	}
	return make([]mshr.Target, 0, c.cfg.Width)
}

// putTargets returns a retired packet's target slice to the pool.
func (c *Coalescer) putTargets(t []mshr.Target) {
	if cap(t) > 0 {
		c.targetPool = append(c.targetPool, t)
	}
}

// crqFront returns the FIFO head packet. The CRQ must be non-empty.
func (c *Coalescer) crqFront() *packet {
	return &c.crqBuf[c.crqHead]
}

// crqPush appends a packet at the ring's tail, growing it as needed.
func (c *Coalescer) crqPush(p packet) {
	if c.crqLen == len(c.crqBuf) {
		size := len(c.crqBuf) * 2
		if size == 0 {
			size = 16
		}
		grown := make([]packet, size)
		for i := 0; i < c.crqLen; i++ {
			grown[i] = c.crqBuf[(c.crqHead+i)&(len(c.crqBuf)-1)]
		}
		c.crqBuf = grown
		c.crqHead = 0
	}
	c.crqBuf[(c.crqHead+c.crqLen)&(len(c.crqBuf)-1)] = p
	c.crqLen++
}

// crqPop retires the FIFO head, recycling its target slice.
func (c *Coalescer) crqPop() {
	p := &c.crqBuf[c.crqHead]
	c.putTargets(p.targets)
	p.targets = nil
	c.headStalls = 0
	c.crqHead = (c.crqHead + 1) & (len(c.crqBuf) - 1)
	c.crqLen--
}

// SetChecker attaches a runtime invariant checker to the coalescer and its
// MSHR file. A nil checker (the default) disables continuous checking.
func (c *Coalescer) SetChecker(ck *invariant.Checker) {
	c.check = ck
	c.file.SetChecker(ck)
}

// Err returns the first conservation violation the coalescer hit, or nil.
// The violation is sticky: once set, further simulation is untrustworthy
// and the caller should abort the run.
func (c *Coalescer) Err() error { return c.viol }

// setViol latches a violation (first one wins) and records it with the
// attached checker, if any.
func (c *Coalescer) setViol(v *invariant.Violation) {
	c.check.Record(v)
	if c.viol == nil {
		c.viol = v
	}
}

// CheckDrained audits the end-of-run conservation laws: after Drain every
// queue must be empty and every MSHR entry free. It returns the first
// violation found, or nil on a clean coalescer.
func (c *Coalescer) CheckDrained(tick uint64) error {
	if n := c.gather.buffered(); n != 0 {
		return c.check.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
			c.DebugState(), "%d request(s) left in the input buffer after drain", n))
	}
	if c.crqLen != 0 {
		return c.check.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
			c.DebugState(), "%d packet(s) left in the CRQ after drain", c.crqLen))
	}
	if n := len(c.retryQ); n != 0 {
		return c.check.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
			c.DebugState(), "%d failed span(s) left in the retry queue after drain", n))
	}
	if n := len(c.inflight); n != 0 {
		return c.check.Record(invariant.Violatef(invariant.RuleQueueLeak, tick,
			c.DebugState(), "%d request(s) still in flight after drain", n))
	}
	return c.file.CheckLeaks(tick)
}

// MSHRStats exposes the MSHR file counters.
func (c *Coalescer) MSHRStats() mshr.Stats { return c.file.Stats() }

// Outstanding reports how many memory requests are in flight.
func (c *Coalescer) Outstanding() int { return len(c.inflight) }

// QueueDepths reports the occupancy of the gather stage's buffers and the
// CRQ, for diagnostics.
func (c *Coalescer) QueueDepths() (pending, crq int) { return c.gather.buffered(), c.crqLen }

// DebugState renders internal queue state for deadlock diagnostics.
func (c *Coalescer) DebugState() string {
	s := fmt.Sprintf("lastAdvance=%d freedAt=%d lastIssue=%d free=%d", c.lastAdvance, c.freedAt, c.lastIssue, c.file.Free())
	if c.crqLen > 0 {
		p := *c.crqFront()
		s += fmt.Sprintf(" head{base=%d lines=%d write=%v ready=%d blocked=%v targets=%d}",
			p.baseLine, p.lines, p.write, p.ready, p.blocked, len(p.targets))
	}
	return s
}

// Push presents one LLC request at the given tick. Ticks must be
// non-decreasing across Push/Fence/Advance calls.
func (c *Coalescer) Push(now uint64, r Request) {
	c.Advance(now)
	c.stats.Requests++
	c.stats.PayloadBytes += uint64(r.Payload)

	if c.mode == Baseline {
		// Conventional MHA: the miss goes straight at the MSHRs.
		c.enqueueSingle(now, r)
		c.drainCRQ(now)
		return
	}
	c.gather.push(now, r)
}

// enqueueSingle queues one request as its own one-line packet, skipping
// first-phase coalescing.
func (c *Coalescer) enqueueSingle(now uint64, r Request) {
	c.enqueuePacket(now, packet{
		baseLine: r.Line, lines: 1, write: r.Write,
		targets: append(c.getTargets(), mshr.Target{Line: r.Line, Token: r.Token, Payload: r.Payload}),
		ready:   now, cpu: r.CPU, critical: r.Critical,
	})
}

// Fence signals a memory fence at the given tick: the gather stage closes
// its open sequences immediately.
func (c *Coalescer) Fence(now uint64) {
	c.Advance(now)
	c.stats.Fences++
	c.gather.fence(now)
}

// Advance processes time up to now: releases backed-off retries that fell
// due, delivers any memory responses due at or before now and closes
// gather sequences whose timeout expired. With none of those due and the
// CRQ empty there is nothing to do, which is most calls: a non-empty CRQ
// always reaches drainCRQ, whose every pass over a blocked head counts
// its MSHR stalls.
func (c *Coalescer) Advance(now uint64) {
	if now > c.lastAdvance {
		c.lastAdvance = now
	}
	if c.crqLen == 0 &&
		(len(c.inflight) == 0 || c.inflight[0].tick > now) &&
		(len(c.retryQ) == 0 || c.retryQ[0].ready > now) &&
		c.gather.nextExpiry() > now {
		return
	}
	c.releaseRetries(now)
	c.completeDue(now)
	c.gather.expire(now)
	// A timeout close may have freed the way for in-flight work.
	c.completeDue(now)
	c.drainCRQ(now)
}

// completeDue delivers every response due at or before now.
func (c *Coalescer) completeDue(now uint64) {
	for len(c.inflight) > 0 && c.inflight[0].tick <= now {
		c.completeOne()
	}
}

// releaseRetries moves failed spans whose backoff has expired back into
// the CRQ as fresh non-coalesced packets.
func (c *Coalescer) releaseRetries(now uint64) {
	for len(c.retryQ) > 0 && c.retryQ[0].ready <= now {
		var p packet
		c.retryQ, p = retryPop(c.retryQ)
		c.enqueuePacket(p.ready, p)
	}
}

// NextEvent returns the earliest tick at which Advance will make further
// progress — a gather timeout expiry, a packet becoming ready for the CRQ,
// or a memory response — and whether any such event exists.
// Simulators use it to advance time while a CPU is stalled. Events already
// processed are excluded: a CRQ head that became ready in the past but is
// blocked on a packed MSHR file only progresses at the next completion.
func (c *Coalescer) NextEvent() (uint64, bool) {
	next := c.gather.nextExpiry()
	if len(c.inflight) > 0 && c.inflight[0].tick < next {
		next = c.inflight[0].tick
	}
	if len(c.retryQ) > 0 && c.retryQ[0].ready < next {
		next = c.retryQ[0].ready
	}
	if c.crqLen > 0 {
		if ready := c.crqNextReady(); ready > c.lastAdvance && ready < next {
			next = ready
		}
	}
	return next, next != ^uint64(0)
}

// crqNextReady returns the earliest ready tick among queued packets: the
// head's under FIFO (strict order), the minimum over the whole CRQ under
// the heterogeneity-aware scheduler — which may issue out of FIFO order,
// so a later packet becoming ready is a real event.
func (c *Coalescer) crqNextReady() uint64 {
	if c.laneBytes == nil || c.crqFront().blocked {
		return c.crqFront().ready
	}
	next := c.crqFront().ready
	mask := len(c.crqBuf) - 1
	for i := 1; i < c.crqLen; i++ {
		if r := c.crqBuf[(c.crqHead+i)&mask].ready; r < next {
			next = r
		}
	}
	return next
}

// Drain flushes all pending state and runs the clock forward until every
// outstanding request has completed. It returns the tick at which the
// memory system went idle.
//
// If the only outstanding responses are ones that will never arrive
// (dropped on a faulty link), Drain returns a watchdog error naming the
// oldest of them instead of looping forever — the caller decides how to
// report it.
func (c *Coalescer) Drain(now uint64) (uint64, error) {
	c.Advance(now)
	c.gather.drain(now)
	idle := now
	for len(c.inflight) > 0 || c.crqLen > 0 || len(c.retryQ) > 0 {
		if c.viol != nil {
			return idle, c.viol
		}
		next := ^uint64(0)
		if len(c.inflight) > 0 && c.inflight[0].tick != hmc.NeverTick {
			next = c.inflight[0].tick
		}
		if len(c.retryQ) > 0 && c.retryQ[0].ready < next {
			next = c.retryQ[0].ready
		}
		if c.crqLen > 0 {
			if ready := c.crqNextReady(); ready > idle && ready < next {
				next = ready
			}
		}
		if next == ^uint64(0) {
			if w, ok := c.Watchdog(); ok {
				// Everything still in flight is a dropped response: no
				// event will ever fire again. Report instead of hanging.
				return idle, c.watchdogError(w)
			}
			// The CRQ head is ready but blocked with nothing in flight.
			// A blocked head implies a full MSHR file, and every allocated
			// entry is in flight — so this state indicates a bug. Report it
			// as a structured violation instead of tearing the process down.
			v := invariant.Violatef(invariant.RuleCRQStuck, idle, c.DebugState(),
				"CRQ stuck with no requests in flight (%d queued, MSHR free=%d)",
				c.crqLen, c.file.Free())
			c.setViol(v)
			return idle, v
		}
		if next > idle {
			idle = next
		}
		c.releaseRetries(idle)
		if len(c.inflight) > 0 && c.inflight[0].tick <= idle {
			c.completeOne()
		}
		c.drainCRQ(idle)
	}
	if c.viol != nil {
		return idle, c.viol
	}
	if c.degraded {
		// Close the open degraded interval so the stats cover the run.
		c.stats.DegradedCycles += idle - c.degradedAt
		c.degradedAt = idle
	}
	return idle, nil
}

func (c *Coalescer) completeOne() {
	var item completion
	c.inflight, item = completionPop(c.inflight)
	e := item.entry
	// Capture the span before Complete invalidates the entry: a poisoned
	// response may need to re-issue exactly these lines.
	baseLine, lines, write := e.BaseLine(), e.Lines(), e.Write()
	c.headStalls = 0
	subs, err := c.file.Complete(e)
	if err != nil {
		if v, ok := invariant.As(err); ok {
			c.setViol(v)
		} else if c.viol == nil {
			c.viol = err
		}
		return
	}
	c.freedAt = item.tick
	if item.fault && item.attempt < MaxPacketRetries {
		c.requeueFailed(item.tick, item.attempt, baseLine, lines, write, subs, item.cpu, item.critical)
	} else {
		if item.fault {
			c.stats.FailedTargets += uint64(len(subs))
		}
		c.complete(item.tick, subs, item.fault)
	}
	c.drainCRQ(item.tick)
}

// requeueFailed schedules a failed span for re-issue as a fresh packet —
// deliberately not re-coalesced: it goes straight back to the CRQ — after
// a capped exponential backoff.
func (c *Coalescer) requeueFailed(now uint64, attempt int, baseLine uint64, lines int, write bool, subs []mshr.Sub, cpu uint8, critical bool) {
	// attempt < MaxPacketRetries, so the shift cannot overflow.
	backoff := min(uint64(RetryBackoffCycles)<<attempt, RetryBackoffCap)
	c.stats.RetriedPackets++
	c.stats.RetryBackoffCycles += backoff
	// subs alias the entry's reusable backing; rebuild durable targets now.
	targets := c.getTargets()
	for _, s := range subs {
		targets = append(targets, mshr.Target{Line: baseLine + uint64(s.LineID), Token: s.Token, Payload: s.Payload})
	}
	p := packet{
		baseLine: baseLine, lines: lines, write: write, targets: targets,
		ready: now + backoff, attempt: attempt + 1, seq: c.retrySeq,
		cpu: cpu, critical: critical,
	}
	c.retrySeq++
	c.retryQ = retryPush(c.retryQ, p)
}

// noteIssue feeds one issue outcome into the degraded-mode sliding window.
// The window is allocated on the first observed error, so a clean run
// never pays for it.
func (c *Coalescer) noteIssue(now uint64, res hmc.Completion) {
	errored := res.Poisoned || res.Dropped || res.Retries > 0
	if c.faultWin == nil {
		if !errored {
			return
		}
		c.faultWin = make([]bool, DegradeWindow)
	}
	if c.faultWin[c.faultPos] {
		c.faultCnt--
	}
	c.faultWin[c.faultPos] = errored
	if errored {
		c.faultCnt++
	}
	c.faultPos++
	if c.faultPos == len(c.faultWin) {
		c.faultPos = 0
	}
	switch {
	case !c.degraded && c.faultCnt >= DegradeThreshold:
		c.degraded = true
		c.degradedAt = now
		c.stats.DegradedEntries++
	case c.degraded && c.faultCnt <= DegradeThreshold/2:
		c.degraded = false
		c.stats.DegradedCycles += now - c.degradedAt
	}
}

// Degraded reports whether the DMC is currently capping packets at one
// cache line because of the observed link error rate.
func (c *Coalescer) Degraded() bool { return c.degraded }

// WatchdogInfo describes the oldest memory response that will never
// arrive, for the simulator's watchdog diagnostic.
type WatchdogInfo struct {
	// Dropped is how many in-flight responses will never arrive.
	Dropped int
	// Line is the base cache line of the oldest dropped entry; Lines and
	// Write complete its span, Waiters its subentry count.
	Line    uint64
	Lines   int
	Write   bool
	Waiters int
	// Entry is the owning MSHR entry's slot in the file.
	Entry int
	// IssuedAt is the tick the doomed request was dispatched.
	IssuedAt uint64
}

// Watchdog scans the in-flight set for responses that will never arrive
// and, if any exist, describes the oldest (by issue tick, then MSHR slot —
// a total order independent of heap layout).
func (c *Coalescer) Watchdog() (WatchdogInfo, bool) {
	var w WatchdogInfo
	for i := range c.inflight {
		it := &c.inflight[i]
		if it.tick != hmc.NeverTick {
			continue
		}
		w.Dropped++
		e := it.entry
		if w.Dropped == 1 || it.issuedAt < w.IssuedAt ||
			(it.issuedAt == w.IssuedAt && e.Index() < w.Entry) {
			w.Line = e.BaseLine()
			w.Lines = e.Lines()
			w.Write = e.Write()
			w.Waiters = len(e.Subs())
			w.Entry = e.Index()
			w.IssuedAt = it.issuedAt
		}
	}
	return w, w.Dropped > 0
}

// DoomedTokens calls fn for every waiter token attached to an in-flight
// request whose response will never arrive (a dropped packet). Such
// tokens are permanently leaked — the completion path that would recycle
// them is unreachable — so a token-ring allocator that wraps onto one of
// their slots may reclaim the slot instead of reporting reuse.
func (c *Coalescer) DoomedTokens(fn func(token uint64)) {
	for i := range c.inflight {
		it := &c.inflight[i]
		if it.tick != hmc.NeverTick {
			continue
		}
		for _, sub := range it.entry.Subs() {
			fn(sub.Token)
		}
	}
}

// WatchdogError renders the watchdog diagnostic as an error, or nil when
// every in-flight response is still expected.
func (c *Coalescer) WatchdogError() error {
	w, ok := c.Watchdog()
	if !ok {
		return nil
	}
	return c.watchdogError(w)
}

// watchdogError renders a deterministic diagnostic for a drained-out run
// whose remaining responses will never arrive. The ErrWatchdog sentinel is
// spliced in with %w so soak harnesses can classify the error while the
// rendered message stays stable.
func (c *Coalescer) watchdogError(w WatchdogInfo) error {
	return fmt.Errorf("coalescer: %w: %d response(s) never arrived; oldest: line %d "+
		"(MSHR entry %d, %d lines, write=%v, %d waiters, issued at %d); %s",
		ErrWatchdog, w.Dropped, w.Line, w.Entry, w.Lines, w.Write, w.Waiters, w.IssuedAt, c.DebugState())
}
