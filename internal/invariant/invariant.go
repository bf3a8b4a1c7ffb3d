// Package invariant is the simulator's runtime conservation checker.
//
// The simulator's correctness rests on a handful of conservation laws —
// every demand-miss token completes exactly once, issued packet bytes equal
// delivered plus poisoned plus dropped bytes, MSHR entries and CRQ slots
// drain to empty, link flow-control tokens are conserved across retries,
// and the deterministic clock never runs backwards. Historically these
// surfaced as bare panics deep inside the coalescer and the MSHR file; this
// package turns them into structured errors (Violation) that carry the rule
// broken, the tick, and a full diagnostic snapshot of the subsystem state,
// and adds *optional* continuous checking that is free when disabled.
//
// The enable/disable contract is strict: a nil *Checker is the disabled
// checker. Every method is nil-safe, so hot paths thread a possibly-nil
// checker and pay one pointer compare — no allocation, no branch on
// configuration structs, byte-identical simulation results either way.
// sim.Config.Checks wires an enabled checker through every layer.
package invariant

import (
	"errors"
	"fmt"
	"strings"
)

// Rule names. Each names one conservation law; the DESIGN.md invariant
// table maps them to the paper mechanism they guard.
const (
	// RuleTokenConservation: every demand-miss token pushed into the
	// coalescer completes exactly once (no loss, no duplication).
	RuleTokenConservation = "token-conservation"
	// RuleDoubleCompletion: a completion delivered a token that was not
	// outstanding — the same waiter woken twice.
	RuleDoubleCompletion = "double-completion"
	// RuleTokenOverflow: a token ring slot was re-issued while still live.
	RuleTokenOverflow = "token-ring-overflow"
	// RuleByteConservation: device packet bytes issued must equal bytes
	// delivered + poisoned + dropped.
	RuleByteConservation = "byte-conservation"
	// RuleLinkTokenLeak: link flow-control tokens leaked without a matching
	// dropped-response record.
	RuleLinkTokenLeak = "link-token-conservation"
	// RuleMSHRLeak: MSHR entries still allocated after Drain.
	RuleMSHRLeak = "mshr-leak"
	// RuleMSHRAccounting: the file's free counter disagrees with its
	// entries' valid bits.
	RuleMSHRAccounting = "mshr-accounting"
	// RuleQueueLeak: coalescer queues (input buffer, CRQ, retry queue,
	// in-flight set) not empty after Drain.
	RuleQueueLeak = "queue-leak"
	// RuleClockMonotone: the deterministic clock ran backwards.
	RuleClockMonotone = "clock-monotone"
	// RuleMSHRAlloc: an entry allocation was attempted on a full file.
	RuleMSHRAlloc = "mshr-alloc"
	// RuleMSHRComplete: Complete was called on an entry that is not live.
	RuleMSHRComplete = "mshr-complete"
	// RuleCRQInsert: a CRQ packet was rejected by the MSHR file.
	RuleCRQInsert = "crq-insert"
	// RuleTargetConservation: an Insert lost or duplicated waiters
	// (merged + issued + unplaced != presented).
	RuleTargetConservation = "target-conservation"
	// RuleCRQStuck: the CRQ head is ready but nothing in flight can ever
	// unblock it.
	RuleCRQStuck = "crq-stuck"
	// RuleIllegalPacket: the coalescer handed the device a packet that
	// violates the HMC packet interface.
	RuleIllegalPacket = "illegal-packet"
)

// Violation is one broken conservation law, as a structured error. It
// carries enough to triage without re-running: the rule, the simulated
// tick, a message naming the quantities that diverged, and a snapshot of
// the owning subsystem's state at the moment of the breach.
type Violation struct {
	// Rule is one of the Rule* constants.
	Rule string
	// Tick is the simulated time of the breach.
	Tick uint64
	// Msg names the quantities that diverged.
	Msg string
	// Snapshot is the owning subsystem's diagnostic state dump.
	Snapshot string
}

// Error renders the violation as "invariant: <rule> at tick N: <msg>"
// followed by the state snapshot.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %s at tick %d: %s", v.Rule, v.Tick, v.Msg)
	if v.Snapshot != "" {
		b.WriteString("; state: ")
		b.WriteString(v.Snapshot)
	}
	return b.String()
}

// Violatef builds a Violation. It is a package function, not a Checker
// method, because the hard failure sites (the former panics) must produce a
// structured error whether or not continuous checking is enabled.
func Violatef(rule string, tick uint64, snapshot, format string, args ...any) *Violation {
	return &Violation{Rule: rule, Tick: tick, Msg: fmt.Sprintf(format, args...), Snapshot: snapshot}
}

// As extracts the *Violation from an error chain, if any.
func As(err error) (*Violation, bool) {
	var v *Violation
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// maxViolations bounds how many violations one checker accumulates: past
// the first few, more reports of the same broken run add noise, not signal.
const maxViolations = 16

// Checker collects violations for one simulated system. The nil *Checker
// is the disabled checker: every method is nil-safe and free, so call
// sites never branch on configuration. A Checker is single-goroutine, like
// the simulator that owns it; independent sweep jobs each own their own.
type Checker struct {
	violations []*Violation
	dropped    int
}

// New returns an enabled checker.
func New() *Checker { return &Checker{} }

// Enabled reports whether continuous checking is on. Guard any check whose
// bookkeeping costs more than a compare with this.
func (c *Checker) Enabled() bool { return c != nil }

// Record registers a violation and returns it. Nil-safe on both sides:
// a nil checker or a nil violation is a no-op.
func (c *Checker) Record(v *Violation) *Violation {
	if c == nil || v == nil {
		return v
	}
	if len(c.violations) >= maxViolations {
		c.dropped++
		return v
	}
	c.violations = append(c.violations, v)
	return v
}

// Violatef builds a violation and records it. Returns nil on a disabled
// checker, so checks-only sites can fold build+record+test into one call.
func (c *Checker) Violatef(rule string, tick uint64, snapshot, format string, args ...any) *Violation {
	if c == nil {
		return nil
	}
	return c.Record(Violatef(rule, tick, snapshot, format, args...))
}

// Violations returns the recorded violations in detection order.
func (c *Checker) Violations() []*Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Err returns nil if no violation was recorded, the violation itself if
// exactly one, and an errors.Join of all of them (detection order, first
// primary) otherwise.
func (c *Checker) Err() error {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	if len(c.violations) == 1 {
		return c.violations[0]
	}
	errs := make([]error, len(c.violations))
	for i, v := range c.violations {
		errs[i] = v
	}
	return errors.Join(errs...)
}

// Reset clears recorded violations so a checker can audit another run.
func (c *Checker) Reset() {
	if c == nil {
		return
	}
	c.violations = c.violations[:0]
	c.dropped = 0
}

// TokenLedger tracks the exactly-once completion law for ring-slot demand
// tokens: Issue marks a slot live (a live slot being re-issued means the
// ring wrapped onto an outstanding miss), Complete marks it dead (a dead
// slot completing means a waiter was woken twice). Allocate one only when
// checking is enabled; the nil *TokenLedger is a free no-op.
type TokenLedger struct {
	live      []bool
	issued    uint64
	completed uint64
	forfeited uint64
}

// NewTokenLedger builds a ledger over a token ring of the given size.
func NewTokenLedger(ring int) *TokenLedger {
	return &TokenLedger{live: make([]bool, ring)}
}

// Issue marks slot live and returns a violation if it already was.
func (l *TokenLedger) Issue(slot, tick uint64) *Violation {
	if l == nil {
		return nil
	}
	l.issued++
	if l.live[slot] {
		return Violatef(RuleTokenOverflow, tick, l.snapshot(),
			"token ring slot %d re-issued while still outstanding", slot)
	}
	l.live[slot] = true
	return nil
}

// Forfeit writes off a live slot whose completion is known to never
// arrive — the waiter of a packet whose response the link dropped. The
// slot leaves the outstanding set (a later Issue may reclaim it cleanly)
// and the forfeiture is carried in the conservation law: at drain time
// issued must equal completed + forfeited.
func (l *TokenLedger) Forfeit(slot uint64) {
	if l == nil || !l.live[slot] {
		return
	}
	l.live[slot] = false
	l.forfeited++
}

// Complete marks slot dead and returns a violation if it was not live.
func (l *TokenLedger) Complete(slot, tick uint64) *Violation {
	if l == nil {
		return nil
	}
	l.completed++
	if !l.live[slot] {
		return Violatef(RuleDoubleCompletion, tick, l.snapshot(),
			"token ring slot %d completed while not outstanding", slot)
	}
	l.live[slot] = false
	return nil
}

// Outstanding counts slots currently live.
func (l *TokenLedger) Outstanding() int {
	if l == nil {
		return 0
	}
	n := 0
	for _, v := range l.live {
		if v {
			n++
		}
	}
	return n
}

// CheckDrained verifies the end-of-run law: everything issued completed.
func (l *TokenLedger) CheckDrained(tick uint64) *Violation {
	if l == nil {
		return nil
	}
	if out := l.Outstanding(); out != 0 || l.issued != l.completed+l.forfeited {
		return Violatef(RuleTokenConservation, tick, l.snapshot(),
			"%d token(s) never completed (%d issued, %d completed, %d forfeited to drops)",
			out, l.issued, l.completed, l.forfeited)
	}
	return nil
}

func (l *TokenLedger) snapshot() string {
	firstLive := -1
	for i, v := range l.live {
		if v {
			firstLive = i
			break
		}
	}
	return fmt.Sprintf("ledger{ring=%d issued=%d completed=%d forfeited=%d outstanding=%d firstLive=%d}",
		len(l.live), l.issued, l.completed, l.forfeited, l.Outstanding(), firstLive)
}
