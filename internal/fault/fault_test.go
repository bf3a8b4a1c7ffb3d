package fault

import (
	"math"
	"testing"
)

func TestDisabledInjectorNeverFires(t *testing.T) {
	in := NewInjector(Config{Seed: 42})
	if in.Enabled() {
		t.Fatal("zero BER/drop reported enabled")
	}
	for serial := uint64(0); serial < 1000; serial++ {
		if in.Corrupt(0, serial, LegRequest, 0, 17) || in.Drop(0, serial) {
			t.Fatalf("disabled injector fired at serial %d", serial)
		}
	}
}

// TestDeterministic is the core contract: decisions are pure functions of
// the packet identity, independent of draw order or injector instance.
func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, BER: 1e-4, DropRate: 0.01}
	a := NewInjector(cfg)
	b := NewInjector(cfg)
	// Consume b in reverse order to prove there is no hidden stream state.
	type decision struct{ corrupt, drop bool }
	got := make([]decision, 500)
	for s := 0; s < 500; s++ {
		got[s] = decision{a.Corrupt(2, uint64(s), LegResponse, 1, 9), a.Drop(2, uint64(s))}
	}
	for s := 499; s >= 0; s-- {
		want := decision{b.Corrupt(2, uint64(s), LegResponse, 1, 9), b.Drop(2, uint64(s))}
		if got[s] != want {
			t.Fatalf("serial %d: order-dependent decision %v vs %v", s, got[s], want)
		}
	}
}

func TestDecisionsVaryByIdentity(t *testing.T) {
	in := NewInjector(Config{Seed: 1, BER: 0.05})
	// With p(corrupt|17 flits) = 1-(1-0.05)^2176 ≈ 1, nearly every draw
	// fires; per-dimension variation shows up at lower flit counts.
	countTrue := func(f func(serial uint64) bool) int {
		n := 0
		for s := uint64(0); s < 2000; s++ {
			if f(s) {
				n++
			}
		}
		return n
	}
	byLink0 := countTrue(func(s uint64) bool { return in.Corrupt(0, s, LegRequest, 0, 1) })
	byLink1 := countTrue(func(s uint64) bool { return in.Corrupt(1, s, LegRequest, 0, 1) })
	byLeg := countTrue(func(s uint64) bool { return in.Corrupt(0, s, LegResponse, 0, 1) })
	byAttempt := countTrue(func(s uint64) bool { return in.Corrupt(0, s, LegRequest, 1, 1) })
	if byLink0 == 0 || byLink0 == 2000 {
		t.Fatalf("degenerate corruption count %d at BER 0.05", byLink0)
	}
	if byLink0 == byLink1 && byLink0 == byLeg && byLink0 == byAttempt {
		t.Fatal("link/leg/attempt do not influence the draw")
	}
}

func TestCorruptionRateTracksBER(t *testing.T) {
	// p(corrupt | 1 flit) = 1-(1-ber)^128 ≈ 128*ber for small ber.
	const n = 200000
	for _, ber := range []float64{1e-4, 1e-3} {
		in := NewInjector(Config{Seed: 9, BER: ber})
		hits := 0
		for s := uint64(0); s < n; s++ {
			if in.Corrupt(0, s, LegRequest, 0, 1) {
				hits++
			}
		}
		want := (1 - math.Pow(1-ber, 128)) * n
		if f := float64(hits); f < want*0.8 || f > want*1.2 {
			t.Errorf("BER %g: %d corruptions over %d draws, want ≈%.0f", ber, hits, n, want)
		}
	}
}

func TestLargerPacketsCorruptMore(t *testing.T) {
	in := NewInjector(Config{Seed: 3, BER: 5e-4})
	count := func(flits int) int {
		n := 0
		for s := uint64(0); s < 50000; s++ {
			if in.Corrupt(0, s, LegRequest, 0, flits) {
				n++
			}
		}
		return n
	}
	small, large := count(1), count(17)
	if large <= small {
		t.Fatalf("17-FLIT packets corrupted %d times vs %d for 1 FLIT; more FLITs must mean more exposure", large, small)
	}
}

func TestThresholdEdges(t *testing.T) {
	// BER 1 corrupts every transmission of every size.
	in := NewInjector(Config{BER: 1})
	for s := uint64(0); s < 100; s++ {
		if !in.Corrupt(0, s, LegRequest, 0, 1) {
			t.Fatal("BER=1 let a packet through")
		}
	}
	// DropRate 1 drops every response.
	in = NewInjector(Config{DropRate: 1})
	for s := uint64(0); s < 100; s++ {
		if !in.Drop(0, s) {
			t.Fatal("DropRate=1 let a response through")
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{BER: -0.1},
		{BER: 1.5},
		{BER: math.NaN()},
		{DropRate: -1},
		{DropRate: 2},
		{MaxRetries: -1},
		{RetrainAfter: -2},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("Validate accepted %+v", c)
		}
	}
	good := []Config{{}, {Seed: 5, BER: 1e-6}, {BER: 1, DropRate: 1, MaxRetries: 10, RetrainAfter: 2}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", c, err)
		}
	}
}

func TestDefaults(t *testing.T) {
	var c Config
	if c.MaxRetriesOrDefault() != DefaultMaxRetries || c.RetrainAfterOrDefault() != DefaultRetrainAfter {
		t.Fatal("zero config does not resolve to defaults")
	}
	c = Config{MaxRetries: 7, RetrainAfter: 9}
	if c.MaxRetriesOrDefault() != 7 || c.RetrainAfterOrDefault() != 9 {
		t.Fatal("explicit values overridden")
	}
}
