package hmc

import (
	"testing"

	"hmccoal/internal/fault"
)

// tokenConfig builds a single-link device with a small token pool so every
// test below saturates flow control quickly.
func tokenConfig(tokens int) Config {
	cfg := DefaultConfig()
	cfg.Links = 1
	cfg.LinkTokens = tokens
	return cfg
}

// TestTokenStarvationOrdering saturates a one-token link: each request
// must wait for the previous response before its packet may even
// serialize, so completions are strictly ordered and the waiting shows up
// in TokenWait.
func TestTokenStarvationOrdering(t *testing.T) {
	d, err := NewDevice(KindHMC, tokenConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i := 0; i < 8; i++ {
		done, err := d.Submit(0, Request{Addr: uint64(i) * 256, PacketBytes: 64, RequestedBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		if done <= prev {
			t.Fatalf("request %d completed at %d, not after the previous response %d", i, done, prev)
		}
		prev = done
	}
	s := d.Stats()
	if s.TokenWait == 0 {
		t.Fatal("a saturated one-token link recorded no token wait")
	}
	// With two tokens the same workload waits strictly less.
	d2, err := NewDevice(KindHMC, tokenConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := d2.Submit(0, Request{Addr: uint64(i) * 256, PacketBytes: 64, RequestedBytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if w2 := d2.Stats().TokenWait; w2 >= s.TokenWait {
		t.Fatalf("two tokens waited %d cycles, not less than one token's %d", w2, s.TokenWait)
	}
}

// TestTokenReleaseOnResponse: a token becomes available exactly when its
// transaction's response is fully received — a request arriving at that
// tick does not wait.
func TestTokenReleaseOnResponse(t *testing.T) {
	d, err := NewDevice(KindHMC, tokenConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	done, err := d.Submit(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if w := d.Stats().TokenWait; w != 0 {
		t.Fatalf("first request on an idle link waited %d cycles for a token", w)
	}
	// Arriving exactly at the release tick: no token wait.
	if _, err := d.Submit(done, Request{Addr: 256, PacketBytes: 64, RequestedBytes: 64}); err != nil {
		t.Fatal(err)
	}
	if w := d.Stats().TokenWait; w != 0 {
		t.Fatalf("request arriving at the release tick waited %d cycles", w)
	}
	// Arriving one tick before it: exactly one cycle of wait.
	d.Reset(d.Kind(), d.Config())
	done, err = d.Submit(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(done-1, Request{Addr: 256, PacketBytes: 64, RequestedBytes: 64}); err != nil {
		t.Fatal(err)
	}
	if w := d.Stats().TokenWait; w != 1 {
		t.Fatalf("TokenWait = %d, want exactly 1", w)
	}
}

// TestRetriedPacketTokenAccounting: under heavy CRC retries the token
// count must stay conserved — a retried packet holds exactly one token and
// releases it at its (delayed, possibly poisoned) completion; it must
// neither leak a token nor free one twice.
func TestRetriedPacketTokenAccounting(t *testing.T) {
	cfg := tokenConfig(2)
	cfg.Fault = fault.Config{Seed: 9, BER: 5e-3} // heavy but recoverable
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	var retried, poisoned int
	for i := 0; i < 400; i++ {
		comp, err := d.SubmitPacket(0, Request{Addr: uint64(i) * 256, PacketBytes: 64, RequestedBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		if comp.Retries > 0 {
			retried++
		}
		if comp.Poisoned {
			poisoned++
		}
		seen[comp.Done] = true
		// The token pool never changes size, and every slot holds either
		// zero (never used) or the completion tick of a transaction that
		// actually finished: a retried packet's token travels with its
		// delayed response instead of leaking.
		link := &d.links[0]
		if len(link.tokens) != 2 {
			t.Fatalf("token pool resized to %d", len(link.tokens))
		}
		for slot, rel := range link.tokens {
			if rel == NeverTick {
				t.Fatalf("request %d leaked token slot %d", i, slot)
			}
			if rel != 0 && !seen[rel] {
				t.Fatalf("token slot %d released at %d, which no completion produced", slot, rel)
			}
		}
	}
	if retried == 0 {
		t.Fatal("BER 5e-3 retried nothing over 400 packets; test is vacuous")
	}
	s := d.Stats()
	if s.TokenStarved != 0 {
		t.Fatalf("recoverable retries starved %d requests of tokens", s.TokenStarved)
	}
	_ = poisoned // poisoned responses still return their token; covered by the slot checks above
}

// TestDroppedResponseLeaksTokenAndStarves: a dropped response never
// returns its token. With a one-token link the next request cannot start
// and must be rejected as Dropped (token starvation), not simulated as an
// infinite wait.
func TestDroppedResponseLeaksTokenAndStarves(t *testing.T) {
	cfg := tokenConfig(1)
	cfg.Fault = fault.Config{Seed: 2, DropRate: 1}
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := d.SubmitPacket(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Dropped {
		t.Fatalf("DropRate=1 did not drop: %+v", first)
	}
	second, err := d.SubmitPacket(0, Request{Addr: 256, PacketBytes: 64, RequestedBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Dropped || second.Done != NeverTick {
		t.Fatalf("starved request not failed loudly: %+v", second)
	}
	s := d.Stats()
	if s.TokenStarved != 1 {
		t.Fatalf("TokenStarved = %d, want 1", s.TokenStarved)
	}
	if s.DroppedResponses != 1 {
		t.Fatalf("DroppedResponses = %d, want 1 (starved requests are not drops)", s.DroppedResponses)
	}
}

// TestNoFaultSubmitZeroAlloc pins the no-fault hot path: once the device
// is warm, Submit must not allocate at all, faults disabled being provably
// free.
func TestNoFaultSubmitZeroAlloc(t *testing.T) {
	d, err := NewDevice(KindHMC, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var i uint64
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := d.Submit(i, Request{Addr: i * 64, PacketBytes: 64, RequestedBytes: 64}); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("no-fault Submit allocates %v times per call, want 0", n)
	}
}

// TestFaultedSubmitZeroAlloc pins the faulted path too: retries, poisons
// and drops are all draw-and-arithmetic, no allocation.
func TestFaultedSubmitZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.Config{Seed: 4, BER: 1e-3, DropRate: 1e-3}
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var i uint64
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := d.SubmitPacket(i, Request{Addr: i * 64, PacketBytes: 64, RequestedBytes: 64}); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("faulted SubmitPacket allocates %v times per call, want 0", n)
	}
}
