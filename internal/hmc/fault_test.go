package hmc

import (
	"reflect"
	"strings"
	"testing"

	"hmccoal/internal/fault"
)

// submitN drives n sequential 64 B reads through the device, returning the
// completions.
func submitN(t *testing.T, d *Device, n int) []Completion {
	t.Helper()
	out := make([]Completion, n)
	for i := 0; i < n; i++ {
		comp, err := d.SubmitPacket(0, Request{Addr: uint64(i) * 256, PacketBytes: 64, RequestedBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = comp
	}
	return out
}

// TestNoFaultMatchesLegacySubmit pins that with injection disabled,
// SubmitPacket is exactly the old Submit: same ticks, same stats, no fault
// flags. This is the "faults disabled must be provably free" contract at
// the device layer.
func TestNoFaultMatchesLegacySubmit(t *testing.T) {
	a, err := NewDevice(KindHMC, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(KindHMC, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		req := Request{Addr: uint64(i*37) * 64, PacketBytes: 64, RequestedBytes: 48, Write: i%3 == 0}
		done, err := a.Submit(uint64(i), req)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := b.SubmitPacket(uint64(i), req)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Done != done || comp.Poisoned || comp.Dropped || comp.Retries != 0 {
			t.Fatalf("request %d: SubmitPacket %+v deviates from Submit tick %d", i, comp, done)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.TransferredBytes != sb.TransferredBytes || sa.LastDone != sb.LastDone {
		t.Fatalf("stats deviate: %+v vs %+v", sa, sb)
	}
	if sb.LinkFaults != nil {
		t.Fatal("no-fault device materialized per-link fault stats")
	}
}

// TestFaultsDeterministic: two devices with the same fault seed observe
// byte-identical faults, completions and counters.
func TestFaultsDeterministic(t *testing.T) {
	mk := func() *Device {
		cfg := DefaultConfig()
		cfg.Fault = fault.Config{Seed: 11, BER: 2e-4, DropRate: 1e-3}
		d, err := NewDevice(KindHMC, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(), mk()
	ca, cb := submitN(t, a, 2000), submitN(t, b, 2000)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("completion %d differs: %+v vs %+v", i, ca[i], cb[i])
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Retries != sb.Retries || sa.PoisonedResponses != sb.PoisonedResponses ||
		sa.DroppedResponses != sb.DroppedResponses || sa.RetrainEvents != sb.RetrainEvents {
		t.Fatalf("fault counters differ: %+v vs %+v", sa, sb)
	}
	if sa.Retries == 0 && sa.DroppedResponses == 0 {
		t.Fatal("BER 2e-4 injected no faults over 2000 packets; test is vacuous")
	}
	if a.DebugLinks() != b.DebugLinks() {
		t.Fatalf("link debug state differs:\n%s\n%s", a.DebugLinks(), b.DebugLinks())
	}
}

// TestRetryAddsLatencyAndBytes: a run under injected CRC errors finishes
// no earlier than a clean run and moves strictly more link bytes.
func TestRetryAddsLatencyAndBytes(t *testing.T) {
	clean, err := NewDevice(KindHMC, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Fault = fault.Config{Seed: 5, BER: 1e-3}
	faulty, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, clean, 1000)
	submitN(t, faulty, 1000)
	sc, sf := clean.Stats(), faulty.Stats()
	if sf.Retries == 0 {
		t.Fatal("BER 1e-3 produced no retries over 1000 packets")
	}
	if sf.LastDone < sc.LastDone {
		t.Fatalf("faulty run finished at %d, before the clean run's %d", sf.LastDone, sc.LastDone)
	}
	if sf.TransferredBytes <= sc.TransferredBytes {
		t.Fatalf("retransmissions moved no extra bytes: %d vs clean %d", sf.TransferredBytes, sc.TransferredBytes)
	}
	if sf.RetransmittedBytes == 0 {
		t.Fatal("RetransmittedBytes not accounted")
	}
	if sf.BandwidthEfficiency() >= sc.BandwidthEfficiency() {
		t.Fatalf("efficiency did not degrade under faults: %.4f vs %.4f",
			sf.BandwidthEfficiency(), sc.BandwidthEfficiency())
	}
}

// TestPoisonOnRetryExhaustion: BER 1 corrupts every transmission, so every
// packet exhausts MaxRetries on its request leg and comes back poisoned —
// and the constant error stream forces link retraining.
func TestPoisonOnRetryExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.Config{Seed: 1, BER: 1, MaxRetries: 2}
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comps := submitN(t, d, 40)
	for i, comp := range comps {
		if !comp.Poisoned {
			t.Fatalf("packet %d not poisoned under BER=1", i)
		}
		if comp.Done == NeverTick {
			t.Fatalf("poisoned packet %d has no completion tick", i)
		}
		if comp.Retries != 2 {
			t.Fatalf("packet %d: %d retries, want MaxRetries=2", i, comp.Retries)
		}
	}
	s := d.Stats()
	if s.PoisonedResponses != 40 {
		t.Fatalf("PoisonedResponses = %d, want 40", s.PoisonedResponses)
	}
	if s.Retries != 80 {
		t.Fatalf("Retries = %d, want 80", s.Retries)
	}
	if s.RetrainEvents == 0 {
		t.Fatal("constant errors never retrained the links")
	}
	// Poisoned reads delivered no data: nothing may count as useful bytes.
	if s.RequestedBytes != 0 || s.PacketBytes != 0 {
		t.Fatalf("poisoned responses credited data: requested=%d packet=%d", s.RequestedBytes, s.PacketBytes)
	}
	// No vault ever saw a request-leg-poisoned packet.
	for v, n := range s.VaultRequests {
		if n != 0 {
			t.Fatalf("vault %d serviced %d poisoned-request packets", v, n)
		}
	}
	if !strings.Contains(d.DebugLinks(), "poisoned=10") {
		t.Errorf("DebugLinks does not show per-link poison counts: %s", d.DebugLinks())
	}
}

// TestDroppedResponse: DropRate 1 makes every response vanish. The
// completion must be NeverTick + Dropped, with counters to match.
func TestDroppedResponse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.Config{Seed: 3, DropRate: 1}
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comps := submitN(t, d, 20)
	for i, comp := range comps {
		if !comp.Dropped || comp.Done != NeverTick {
			t.Fatalf("packet %d: %+v, want Dropped at NeverTick", i, comp)
		}
	}
	s := d.Stats()
	if s.DroppedResponses != 20 {
		t.Fatalf("DroppedResponses = %d, want 20", s.DroppedResponses)
	}
	if s.LastDone != 0 {
		t.Fatalf("a dropped response advanced LastDone to %d", s.LastDone)
	}
}

// TestResetClearsFaultState: after Reset the device replays the identical
// fault sequence — serials restart at zero.
func TestResetClearsFaultState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.Config{Seed: 7, BER: 5e-4, DropRate: 1e-3}
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := submitN(t, d, 500)
	d.Reset(d.Kind(), d.Config())
	second := submitN(t, d, 500)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at packet %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestValidateRejectsBadFaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault.BER = 2
	if _, err := NewDevice(KindHMC, cfg); err == nil {
		t.Fatal("NewDevice accepted BER=2")
	}
	cfg = DefaultConfig()
	cfg.Fault.DropRate = -0.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a negative drop rate")
	}
}

// TestResetAfterFaultsMatchesFresh is the reset-after-faults round trip: a
// device that has taken fault-injected traffic (retries, retrains, poison,
// drops, retry-buffer churn) must, after Reset, be indistinguishable from a
// freshly built device — identical Stats, identical link debug state, and
// an identical fault sequence on replay (the packet serial that keys the
// injector restarts from zero).
func TestResetAfterFaultsMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.Config{Seed: 9, BER: 1e-4, DropRate: 1e-4, MaxRetries: 2}
	used, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre := submitN(t, used, 3000)
	var faulty bool
	for _, c := range pre {
		if c.Retries > 0 || c.Poisoned || c.Dropped {
			faulty = true
		}
	}
	if !faulty {
		t.Fatal("fault profile injected nothing; raise the rates")
	}

	used.Reset(used.Kind(), used.Config())
	fresh, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := used.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("reset device stats differ from fresh:\n%+v\nvs\n%+v", got, want)
	}
	if got, want := used.DebugLinks(), fresh.DebugLinks(); got != want {
		t.Errorf("reset link state differs from fresh:\n%s\nvs\n%s", got, want)
	}

	// Replay: the reset device must produce the exact fault sequence of the
	// fresh one — completion ticks, retries, poison and drops included.
	a, b := submitN(t, used, 3000), submitN(t, fresh, 3000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d diverges after reset: %+v vs %+v", i, a[i], b[i])
		}
	}
	if got, want := used.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-replay stats diverge:\n%+v\nvs\n%+v", got, want)
	}
}
