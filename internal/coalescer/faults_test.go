package coalescer

import (
	"errors"
	"strings"
	"testing"

	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
	"hmccoal/internal/mshr"
)

// faultHarness wires a coalescer to a scriptable fake memory: the verdicts
// slice decides, per dispatch in order, how each issue ends. Past the end
// of the script every issue succeeds.
type faultHarness struct {
	c         *Coalescer
	latency   uint64
	verdicts  []hmc.Completion // Done filled in by the harness
	issues    []issueRecord
	completed map[uint64]uint64
	faulted   map[uint64]bool
}

func newFaultHarness(t *testing.T, kind Kind, cfg Config, verdicts []hmc.Completion) *faultHarness {
	t.Helper()
	h := &faultHarness{
		latency: 400, verdicts: verdicts,
		completed: map[uint64]uint64{}, faulted: map[uint64]bool{},
	}
	c, err := New(cfg, TwoPhase, kind, SchedFRFCFS, testLanes,
		func(tick uint64, req hmc.Request) (hmc.Completion, error) {
			n := len(h.issues)
			h.issues = append(h.issues, issueOf(tick, req))
			res := hmc.Completion{Done: tick + h.latency}
			if n < len(h.verdicts) {
				v := h.verdicts[n]
				res.Poisoned, res.Dropped, res.Retries = v.Poisoned, v.Dropped, v.Retries
				if v.Dropped {
					res.Done = hmc.NeverTick
				}
			}
			return res, nil
		},
		func(tick uint64, subs []mshr.Sub, fault bool) {
			for _, s := range subs {
				if _, dup := h.completed[s.Token]; dup {
					t.Fatalf("token %d completed twice", s.Token)
				}
				h.completed[s.Token] = tick
				h.faulted[s.Token] = fault
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	return h
}

// TestPoisonedPacketRetriesAndSucceeds: the first dispatch is poisoned,
// the re-issue succeeds. The waiter completes exactly once, without the
// error bit, after the backoff.
func TestPoisonedPacketRetriesAndSucceeds(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		h := newFaultHarness(t, kind, noBypass(), []hmc.Completion{{Poisoned: true}})
		h.c.Push(0, Request{Line: 5, Payload: 16, Token: 1})
		idle, err := h.c.Drain(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.issues) != 2 {
			t.Fatalf("%d dispatches, want 2 (original + retry)", len(h.issues))
		}
		if h.issues[1].baseLine != 5 || h.issues[1].lines != 1 {
			t.Fatalf("retry dispatched wrong span: %+v", h.issues[1])
		}
		tick, ok := h.completed[1]
		if !ok {
			t.Fatal("waiter never completed")
		}
		if h.faulted[1] {
			t.Fatal("successful retry still delivered the error bit")
		}
		// The retry waits out the poisoned response (latency) plus the backoff
		// before its own full round trip.
		s := h.c.Stats()
		if tick < h.latency+s.RetryBackoffCycles {
			t.Fatalf("completion at %d is too early for a backed-off retry", tick)
		}
		if s.PoisonedPackets != 1 || s.RetriedPackets != 1 || s.FailedTargets != 0 {
			t.Fatalf("stats %+v: want 1 poisoned, 1 retried, 0 failed", s)
		}
		if idle < tick {
			t.Fatalf("idle tick %d before the last completion %d", idle, tick)
		}
	})
}

// TestRetryExhaustionDeliversError: a span that fails every re-issue
// completes its waiters with the error bit instead of looping forever.
func TestRetryExhaustionDeliversError(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		// Enough poison verdicts to outlast the budget.
		verdicts := make([]hmc.Completion, MaxPacketRetries+2)
		for i := range verdicts {
			verdicts[i] = hmc.Completion{Poisoned: true}
		}
		h := newFaultHarness(t, kind, noBypass(), verdicts)
		h.c.Push(0, Request{Line: 9, Payload: 16, Token: 7})
		if _, err := h.c.Drain(10); err != nil {
			t.Fatal(err)
		}
		if len(h.issues) != 9 {
			t.Fatalf("%d dispatches, want 9 (original + 8 retries)", len(h.issues))
		}
		if !h.faulted[7] {
			t.Fatal("exhausted span did not deliver the error bit")
		}
		s := h.c.Stats()
		if s.FailedTargets != 1 {
			t.Fatalf("FailedTargets = %d, want 1", s.FailedTargets)
		}
		if s.RetriedPackets != 8 {
			t.Fatalf("RetriedPackets = %d, want 8", s.RetriedPackets)
		}
		// Backoff doubles from 64 cycles and holds at the 4096-cycle cap.
		const want = 64 + 128 + 256 + 512 + 1024 + 2048 + 4096 + 4096
		if s.RetryBackoffCycles != want {
			t.Fatalf("RetryBackoffCycles = %d, want %d", s.RetryBackoffCycles, want)
		}
	})
}

// TestRetryPreservesAllWaiters: a poisoned 4-line coalesced packet with
// several waiters re-issues the whole span; every token completes once.
func TestRetryPreservesAllWaiters(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		h := newFaultHarness(t, kind, noBypass(), []hmc.Completion{{Poisoned: true}})
		for i := uint64(0); i < 4; i++ {
			h.c.Push(0, Request{Line: i, Payload: 16, Token: 100 + i})
		}
		h.c.Advance(200) // timeout-flush the partial batch
		if _, err := h.c.Drain(300); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 4; i++ {
			if _, ok := h.completed[100+i]; !ok {
				t.Fatalf("token %d lost across the retry", 100+i)
			}
			if h.faulted[100+i] {
				t.Fatalf("token %d delivered with error after a successful retry", 100+i)
			}
		}
		if len(h.issues) != 2 {
			t.Fatalf("%d dispatches, want 2", len(h.issues))
		}
		if h.issues[1].lines != 4 {
			t.Fatalf("retry split the span: %+v", h.issues[1])
		}
	})
}

// TestDegradedModeCapsPacketSize: a run of errored issues pushes the
// windowed error count to the threshold; packets queued while degraded are
// split to one line, and the mode exits (recording its duration) once
// clean issues have rolled all but half the threshold out of the window.
func TestDegradedModeCapsPacketSize(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		// The first 16 issues are retried-but-successful: they errored on
		// the link (Retries > 0) without poisoning, so they fill the window
		// without triggering span retries.
		verdicts := make([]hmc.Completion, 16)
		for i := range verdicts {
			verdicts[i] = hmc.Completion{Retries: 1}
		}
		h := newFaultHarness(t, kind, noBypass(), verdicts)

		// Single-line pushes in distinct blocks, one issue each.
		tick := uint64(0)
		push := func(line, token uint64) {
			h.c.Push(tick, Request{Line: line, Payload: 16, Token: token})
			tick += 100
			h.c.Advance(tick)
		}
		for i := uint64(0); i < 16; i++ {
			if h.c.Degraded() {
				t.Fatalf("degraded after %d errored issues, want 16", i)
			}
			push(i*64, i)
		}
		if len(h.issues) != 16 || !h.c.Degraded() {
			t.Fatalf("16 errored issues of 64 did not degrade (%d issues, stats %+v)", len(h.issues), h.c.Stats())
		}

		// A full contiguous 16-line batch while degraded: normally 4×4-line
		// packets, now 16 single-line packets.
		before := len(h.issues)
		for i := uint64(0); i < 16; i++ {
			h.c.Push(tick, Request{Line: 1000 + i, Payload: 16, Token: 100 + i})
		}
		tick += 1000
		h.c.Advance(tick)
		degradedIssues := h.issues[before:]
		for _, is := range degradedIssues {
			if is.lines != 1 {
				t.Fatalf("degraded mode issued a %d-line packet: %+v", is.lines, is)
			}
		}
		if len(degradedIssues) != 16 {
			t.Fatalf("%d degraded dispatches, want 16", len(degradedIssues))
		}

		// Clean issues roll the errored ones out of the 64-issue window: the
		// mode exits with the 72nd issue, when 8 errored ones remain.
		for n := len(h.issues); n < 72; n = len(h.issues) {
			if !h.c.Degraded() {
				t.Fatalf("left degraded mode after %d issues, want 72", n)
			}
			push(uint64(2000+n*64), uint64(200+n))
		}
		if h.c.Degraded() {
			t.Fatal("8 errored issues in the window did not clear degraded mode")
		}
		if _, err := h.c.Drain(tick); err != nil {
			t.Fatal(err)
		}
		s := h.c.Stats()
		if s.DegradedSplits == 0 {
			t.Fatal("no degraded splits recorded")
		}
		if s.DegradedEntries != 1 {
			t.Fatalf("DegradedEntries = %d, want 1", s.DegradedEntries)
		}
		if s.DegradedCycles == 0 {
			t.Fatal("time spent degraded not recorded")
		}
		// All waiters still complete cleanly.
		for i := uint64(0); i < 16; i++ {
			if _, ok := h.completed[100+i]; !ok {
				t.Fatalf("token %d lost in degraded mode", 100+i)
			}
		}
	})
}

// TestDroppedResponseWatchdog: a response that never arrives must turn
// Drain into a deterministic watchdog error, not a hang or a panic.
func TestDroppedResponseWatchdog(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		run := func() (string, Stats) {
			h := newFaultHarness(t, kind, noBypass(), []hmc.Completion{{Dropped: true}})
			h.c.Push(0, Request{Line: 42, Payload: 16, Token: 3})
			_, err := h.c.Drain(10)
			if err == nil {
				t.Fatal("Drain returned no error for a dropped response")
			}
			return err.Error(), h.c.Stats()
		}
		msg1, stats := run()
		msg2, _ := run()
		if msg1 != msg2 {
			t.Fatalf("watchdog message unstable:\n%s\n%s", msg1, msg2)
		}
		for _, want := range []string{"watchdog", "line 42", "1 waiters", "MSHR entry 0"} {
			if !strings.Contains(msg1, want) {
				t.Errorf("watchdog message %q missing %q", msg1, want)
			}
		}
		if stats.DroppedPackets != 1 {
			t.Fatalf("DroppedPackets = %d, want 1", stats.DroppedPackets)
		}
		// The waiter is stranded by design — the sim layer reports it — but
		// the watchdog must know about it.
		if w, ok := func() (WatchdogInfo, bool) {
			h := newFaultHarness(t, kind, noBypass(), []hmc.Completion{{Dropped: true}})
			h.c.Push(0, Request{Line: 42, Payload: 16, Token: 3})
			h.c.Drain(10) // dispatches the packet, then reports the drop
			return h.c.Watchdog()
		}(); !ok || w.Dropped != 1 || w.Line != 42 {
			t.Fatalf("Watchdog() = %+v, %v", w, ok)
		}
	})
}

// TestWatchdogPicksOldestDrop: with several dropped responses, the
// diagnostic names the earliest-issued one.
func TestWatchdogPicksOldestDrop(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		h := newFaultHarness(t, kind, noBypass(), []hmc.Completion{{Dropped: true}, {Dropped: true}})
		h.c.Push(0, Request{Line: 7, Payload: 16, Token: 1})
		h.c.Advance(50)
		h.c.Push(60, Request{Line: 300, Payload: 16, Token: 2})
		_, err := h.c.Drain(100)
		if err == nil {
			t.Fatal("no watchdog error")
		}
		if !strings.Contains(err.Error(), "2 response(s)") {
			t.Errorf("drop count missing: %s", err)
		}
		if !strings.Contains(err.Error(), "line 7") {
			t.Errorf("oldest drop (line 7) not named: %s", err)
		}
	})
}

// TestRetryQueueDeterministicOrder: same-tick retries release in failure
// order, so a fault-heavy run replays identically.
func TestRetryQueueDeterministicOrder(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		run := func() []issueRecord {
			cfg := noBypass()
			verdicts := []hmc.Completion{{Poisoned: true}, {Poisoned: true}, {Poisoned: true}, {Poisoned: true}}
			h := newFaultHarness(t, kind, cfg, verdicts)
			// Four single-line packets in distinct blocks issued back to back;
			// all four poison at once and re-enter through the retry queue.
			for i := uint64(0); i < 4; i++ {
				h.c.Push(0, Request{Line: i * 64, Payload: 16, Token: i})
			}
			if _, err := h.c.Drain(10); err != nil {
				t.Fatal(err)
			}
			return h.issues
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("dispatch counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("dispatch %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
	})
}

// TestDeviceRejectionLatchesViolation: a packet the device rejects latches
// an illegal-packet violation that Err and Drain report, instead of
// reaching the caller as a response.
func TestDeviceRejectionLatchesViolation(t *testing.T) {
	forEachGather(t, func(t *testing.T, kind Kind) {
		c, err := New(noBypass(), TwoPhase, kind, SchedFRFCFS, testLanes,
			func(uint64, hmc.Request) (hmc.Completion, error) { return hmc.Completion{}, errors.New("rejected") },
			func(uint64, []mshr.Sub, bool) { t.Fatal("a rejected packet completed its waiters") })
		if err != nil {
			t.Fatal(err)
		}
		c.Push(0, Request{Line: 5, Payload: 16, Token: 1})
		_, err = c.Drain(10)
		if v, ok := invariant.As(err); !ok || v.Rule != invariant.RuleIllegalPacket || !strings.Contains(v.Msg, "rejected") {
			t.Fatalf("Drain = %v, want the illegal-packet violation", err)
		}
		if c.Err() != err {
			t.Fatalf("Err = %v, Drain = %v", c.Err(), err)
		}
	})
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Width = 12 },
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.LineBytes = 48 },
		func(c *Config) { c.LineBytes = 2 * BlockBytes },
		func(c *Config) { c.MSHR.Entries = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("Validate rejected the default config: %v", err)
	}
}
