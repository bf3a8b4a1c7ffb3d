package sim

import (
	"strings"
	"testing"

	"hmccoal/internal/fault"
)

// faultConfig returns the evaluation system with fault injection set up.
func faultConfig(f fault.Config) Config {
	cfg := DefaultConfig()
	cfg.HMC.Fault = f
	return cfg
}

// TestWatchdogMessageStable: a dropped response must terminate the run
// with a deterministic watchdog diagnostic naming the doomed line and the
// link state — never an infinite tick loop.
func TestWatchdogMessageStable(t *testing.T) {
	run := func() string {
		cfg := faultConfig(fault.Config{Seed: 1, DropRate: 1})
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs := genTrace(t, "STREAM", 50)[:200]
		_, err = s.Run(accs)
		if err == nil {
			t.Fatal("run with every response dropped completed without error")
		}
		return err.Error()
	}
	msg1 := run()
	msg2 := run()
	if msg1 != msg2 {
		t.Fatalf("watchdog diagnostic unstable:\n%s\n%s", msg1, msg2)
	}
	for _, want := range []string{
		"watchdog",      // it is the watchdog, not a deadlock report
		"never arrived", // names the failure mode
		"MSHR entry",    // names the owning MSHR entry
		"line",          // names the oldest outstanding line
		"links:",        // includes the link state
		"dropped=",      // per-link drop counters
	} {
		if !strings.Contains(msg1, want) {
			t.Errorf("diagnostic %q missing %q", msg1, want)
		}
	}
}

// TestFaultedRunCompletes: with a high BER every packet poisons and the
// span retries exhaust, but the run still terminates with every waiter
// accounted (as failed), never hanging or leaking tokens.
func TestFaultedRunCompletes(t *testing.T) {
	cfg := faultConfig(fault.Config{Seed: 3, BER: 1, MaxRetries: 1})
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	accs := genTrace(t, "STREAM", 100)
	res, err := s.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedLoads == 0 {
		t.Error("BER=1 produced no failed loads")
	}
	if !res.FaultsObserved() {
		t.Error("FaultsObserved false under BER=1")
	}
	if res.HMC.PoisonedResponses == 0 || res.Coalescer.RetriedPackets == 0 {
		t.Errorf("fault counters empty: %d poisoned, %d retried",
			res.HMC.PoisonedResponses, res.Coalescer.RetriedPackets)
	}
}

// TestFaultedRunDeterministic: the acceptance criterion — same seed, same
// trace, byte-identical summary, fault counters and all.
func TestFaultedRunDeterministic(t *testing.T) {
	run := func() string {
		cfg := faultConfig(fault.Config{Seed: 42, BER: 5e-5})
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(genTrace(t, "STREAM", 400))
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("faulted run not reproducible:\n%s\n%s", a, b)
	}
}

// TestFaultsDegradeTheRun: injected errors must cost wall-clock time and
// bandwidth relative to the same trace on a clean link, and the summary
// must say so — while the clean run's summary stays free of fault lines.
func TestFaultsDegradeTheRun(t *testing.T) {
	accs := genTrace(t, "STREAM", 400)
	run := func(f fault.Config) Result {
		s, err := NewSystem(faultConfig(f))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(accs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(fault.Config{})
	faulty := run(fault.Config{Seed: 9, BER: 2e-4})

	if faulty.RuntimeCycles < clean.RuntimeCycles {
		t.Errorf("faults sped the run up: %d < %d cycles", faulty.RuntimeCycles, clean.RuntimeCycles)
	}
	if faulty.HMC.TransferredBytes <= clean.HMC.TransferredBytes {
		t.Errorf("retransmissions moved no extra bytes: %d <= %d",
			faulty.HMC.TransferredBytes, clean.HMC.TransferredBytes)
	}
	if faulty.HMC.BandwidthEfficiency() >= clean.HMC.BandwidthEfficiency() {
		t.Errorf("bandwidth efficiency did not degrade: %.4f >= %.4f",
			faulty.HMC.BandwidthEfficiency(), clean.HMC.BandwidthEfficiency())
	}
	if clean.FaultsObserved() {
		t.Error("clean run reports observed faults")
	}
	if strings.Contains(clean.Summary(), "link retries") {
		t.Error("clean summary renders fault lines")
	}
	if !strings.Contains(faulty.Summary(), "link retries") {
		t.Error("faulty summary missing fault lines")
	}
}

// TestConfigValidate covers the assembled-system validator, including the
// component errors it must surface (the sortnet width reaches it through
// the coalescer configuration).
func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ClockGHz = -1 },
		func(c *Config) { c.MaxOutstanding = 0 },
		func(c *Config) { c.Hierarchy.CPUs = 0 },
		func(c *Config) { c.Hierarchy.CPUs = 300 },
		func(c *Config) { c.Coalescer.Width = 12 },
		func(c *Config) { c.Coalescer.LineBytes = 128 },
		func(c *Config) { c.Mode = Mode(3) },
		func(c *Config) { c.HMC.Fault.BER = 2 },
		func(c *Config) { c.HMC.Fault.MaxRetries = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted the config", i)
		}
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: NewSystem accepted the config", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}
