package coalescer

import (
	"testing"

	"hmccoal/internal/mshr"
)

// benchCoalescer builds a two-phase coalescer against a fixed-latency fake
// memory, the configuration the full simulator drives.
func benchCoalescer(b *testing.B) *Coalescer {
	b.Helper()
	c, err := New(DefaultConfig(), KindTwoPhase, SchedFRFCFS, 1,
		func(tick uint64, e *mshr.Entry) IssueResult { return IssueResult{Done: tick + 200} },
		func(tick uint64, subs []mshr.Sub, fault bool) {})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkPushAdvance measures the coalescer steady state: bursts of
// line-adjacent misses flushed through the sorter, the DMC unit, the CRQ
// and the MSHR file, with time advanced past every completion.
func BenchmarkPushAdvance(b *testing.B) {
	c := benchCoalescer(b)
	tick := uint64(0)
	tok := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i%4096) * 4
		for j := uint64(0); j < 4; j++ {
			c.Push(tick, Request{Line: base + j, Write: false, Payload: 16, Token: tok})
			tok++
			tick += 2
		}
		if i%8 == 7 {
			tick += 400 // let responses land and the CRQ drain
			c.Advance(tick)
		}
	}
	b.StopTimer()
	c.Drain(tick)
}

// BenchmarkBaselinePush measures the conventional-MHA path (no sorter):
// every miss goes straight at the MSHRs.
func BenchmarkBaselinePush(b *testing.B) {
	cfg := BaselineConfig()
	c, err := New(cfg, KindTwoPhase, SchedFRFCFS, 1,
		func(tick uint64, e *mshr.Entry) IssueResult { return IssueResult{Done: tick + 200} },
		func(tick uint64, subs []mshr.Sub, fault bool) {})
	if err != nil {
		b.Fatal(err)
	}
	tick := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Push(tick, Request{Line: uint64(i % 8192), Payload: 16, Token: uint64(i)})
		tick += 30 // spaced enough that the file never saturates
	}
	b.StopTimer()
	c.Drain(tick)
}
