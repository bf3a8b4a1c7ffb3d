package coalescer

import (
	"testing"

	"hmccoal/internal/hmc"
	"hmccoal/internal/mshr"
)

// benchCoalescer builds a coalescer with the sorter gather under mode
// against a fake memory that answers every request latency cycles after it
// is issued.
func benchCoalescer(b *testing.B, mode Mode, latency uint64) *Coalescer {
	b.Helper()
	c, err := New(DefaultConfig(), mode, KindTwoPhase, SchedFRFCFS, 1,
		func(tick uint64, _ hmc.Request) (hmc.Completion, error) {
			return hmc.Completion{Done: tick + latency}, nil
		},
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
	c := benchCoalescer(b, TwoPhase, 200)
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
	c := benchCoalescer(b, Baseline, 200)
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

// BenchmarkBlockedHead measures a CRQ head blocked on a packed 16-entry
// MSHR file: every cycle advances time with no response due, so each pass
// finds the file unchanged and has only the head's stalls to count.
func BenchmarkBlockedHead(b *testing.B) {
	c := benchCoalescer(b, Baseline, 1<<40) // no response lands during the run
	n := uint64(DefaultConfig().MSHR.Entries)
	for i := uint64(0); i <= n; i++ {
		c.Push(0, Request{Line: i * 100, Payload: 8, Token: i}) // scattered
	}
	if got := c.Outstanding(); got != int(n) {
		b.Fatalf("%d requests in flight, want a packed file of %d", got, n)
	}
	stalls := c.MSHRStats().FullStalls
	b.ReportAllocs()
	b.ResetTimer()
	for tick := uint64(1); tick <= uint64(b.N); tick++ {
		c.Advance(tick)
	}
	b.StopTimer()
	if d := c.MSHRStats().FullStalls - stalls; d != uint64(b.N) {
		b.Fatalf("%d stalls over %d blocked passes", d, b.N)
	}
	c.Drain(uint64(b.N))
}
