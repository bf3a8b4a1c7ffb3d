package sim

import (
	"fmt"
	"testing"

	"hmccoal/internal/cache"
	"hmccoal/internal/coalescer"
	"hmccoal/internal/fault"
	"hmccoal/internal/hmc"
	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

// fuzzHierarchy is a small 4-CPU cache stack every fuzzed configuration
// shares, so one Pool System serves them all and a run costs milliseconds.
var fuzzHierarchy = cache.HierarchyConfig{
	CPUs: 4,
	L1:   cache.Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64},
	L2:   cache.Config{SizeBytes: 16 << 10, Ways: 8, LineBytes: 64},
	LLC:  cache.Config{SizeBytes: 64 << 10, Ways: 16, LineBytes: 64},
}

// fuzzConfig decodes a system configuration on fuzzHierarchy from bits:
// mode, front-end, scheduler, backend, link faults (HMC only), checks,
// sorter timeout, MSHR count and, with faults, a one-retry link budget
// that sends many spans to the coalescer's retry heap; then the shapes a
// Reset keeps or rebuilds — sorter width, link flow-control tokens, MSHR
// subentries — and, with faults, dropped responses that leak those
// tokens. Every pick's index 0 is the value earlier picks left, so a seed
// decodes to the same configuration however many picks follow. A small
// miss budget makes cores stall.
func fuzzConfig(bits uint32) Config {
	pick := func(n uint32) uint32 {
		v := bits % n
		bits /= n
		return v
	}
	cfg := DefaultConfig()
	cfg.Hierarchy = fuzzHierarchy
	cfg.MaxOutstanding = 4
	cfg.Mode = Mode(pick(3))
	cfg.Frontend = coalescer.Kind(pick(2))
	cfg.Sched = coalescer.Sched(pick(2))
	cfg.Backend = hmc.Kind(pick(3))
	if ber := pick(4); ber > 0 && cfg.Backend == hmc.KindHMC {
		cfg.HMC.Fault = fault.Config{Seed: uint64(pick(4)) + 1, BER: []float64{1e-5, 1e-4, 1e-3}[ber-1]}
	}
	cfg.Checks = pick(2) == 1
	cfg.Coalescer.TimeoutCycles = []uint64{16, 24, 28}[pick(3)]
	cfg.Coalescer.MSHR.Entries = []int{4, 8, 16}[pick(3)]
	if cfg.HMC.Fault.BER > 0 {
		cfg.HMC.Fault.MaxRetries = []int{0, 1}[pick(2)]
	}
	cfg.Coalescer.Width = []int{16, 8, 32}[pick(3)]
	cfg.HMC.LinkTokens = []int{0, 4}[pick(2)]
	cfg.Coalescer.MSHR.MaxSubentries = []int{8, 4}[pick(2)]
	if cfg.HMC.Fault.BER > 0 {
		cfg.HMC.Fault.DropRate = []float64{0, 1e-2}[pick(2)]
	}
	return cfg
}

// fuzzTrace generates a short seeded trace on fuzzHierarchy's CPUs.
func fuzzTrace(t *testing.T, seed uint8) []trace.Access {
	t.Helper()
	benches := []string{"HPCG", "FT", "SSCA2", "STREAM", "CG"}
	g, ok := workloads.ByName(benches[int(seed)%len(benches)])
	if !ok {
		t.Fatal("missing fuzz workload")
	}
	st, err := g.Generate(workloads.Params{CPUs: fuzzHierarchy.CPUs, OpsPerCPU: 150, Seed: int64(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return st.Flatten()
}

// outcome renders everything a run produced — the Result with every
// layer's statistics and its Summary, or the error — for comparison.
func outcome(res Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%+v\n%s", res, res.Summary())
}

// stepsPerAccess bounds the Steps a fuzzed run may take per trace access:
// nearly four times the most seen over 7500 random configurations and
// traces (4.2 per access).
const stepsPerAccess = 16

// runBudgeted is runToEnd for a started System running n accesses, failing
// the test once the run has taken stepsPerAccess×n Steps. A reset defect
// that stops progress between Steps, such as a stale timer that is due
// forever, then fails with its input instead of hanging.
func runBudgeted(t *testing.T, s *System, n int) (Result, error) {
	t.Helper()
	for i := 0; i < stepsPerAccess*n; i++ {
		done, err := s.Step()
		if err != nil {
			return Result{}, err
		}
		if done {
			return s.Finish()
		}
	}
	t.Fatalf("run of %d accesses unfinished after %d steps", n, stepsPerAccess*n)
	return Result{}, nil
}

// runOutcome starts s on accs and renders its budgeted run.
func runOutcome(t *testing.T, s *System, accs []trace.Access) string {
	t.Helper()
	if err := s.Start(accs); err != nil {
		return outcome(Result{}, err)
	}
	return outcome(runBudgeted(t, s, len(accs)))
}

// freshOutcome runs accs on a System built fresh from cfg.
func freshOutcome(t *testing.T, cfg Config, accs []trace.Access) string {
	t.Helper()
	return runOutcome(t, mustSystem(t, cfg), accs)
}

// FuzzResetEquivalence holds System reuse to a fresh System for any pair
// of configurations that share a hierarchy. Run A goes to the end (fate
// 0), is a payload analysis instead (fate 1, as a sweep's payload job runs
// on a pooled System), or is abandoned after a fuzzed number of steps
// (fates 2 and 3). Run B on the pooled System must then produce exactly
// what B produces on a fresh System.
func FuzzResetEquivalence(f *testing.F) {
	f.Add(uint32(0), uint32(1), uint8(0), uint8(1), uint8(0), uint16(0))
	f.Add(uint32(7), uint32(200), uint8(2), uint8(3), uint8(1), uint16(300))
	f.Add(uint32(1234), uint32(99), uint8(1), uint8(4), uint8(3), uint16(500))
	f.Add(uint32(5), uint32(1234), uint8(3), uint8(0), uint8(3), uint16(150))
	f.Add(uint32(22), uint32(8), uint8(4), uint8(2), uint8(2), uint16(900))
	// Abandons a DMC-only run at BER 1e-3 (bits 7021) with one link retry
	// (+10368, the product of the radices before it) while three failed
	// spans wait in the retry heap: the pooled coalescer must start B
	// with an empty heap and its retry sequence counter back at zero.
	f.Add(uint32(7021+10368), uint32(0), uint8(2), uint8(0), uint8(3), uint16(660))
	// A two-phase run abandoned mid-trace, then a warp run: the pooled
	// coalescer switches gather stages with the sorter's buffers still full.
	f.Add(uint32(1730), uint32(1733), uint8(0), uint8(1), uint8(2), uint16(300))
	// Sorter width 16, then 32 (+2×2592, the product of the fault-free
	// radices before the width pick): the pooled sorter network and its
	// working arrays must be rebuilt, not reused.
	f.Add(uint32(1730), uint32(1730+2*2592), uint8(1), uint8(0), uint8(0), uint16(0))
	// A run at BER 1e-3 whose dropped responses leak link tokens (4 per
	// link), then a clean run with tokens on (+3×2592): every token must
	// start free.
	f.Add(uint32(318062), uint32(1730+3*2592), uint8(0), uint8(0), uint8(0), uint16(0))

	f.Fuzz(func(t *testing.T, bitsA, bitsB uint32, seedA, seedB, fate uint8, steps uint16) {
		cfgA, cfgB := fuzzConfig(bitsA), fuzzConfig(bitsB)
		accsA, accsB := fuzzTrace(t, seedA), fuzzTrace(t, seedB)
		var pool Pool
		a, err := pool.Get(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		switch fate % 4 {
		case 0:
			runOutcome(t, a, accsA) // a faulty run may end in a watchdog error
		case 1:
			idx, err := NewTraceIndex(accsA, fuzzHierarchy.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.AnalyzePayload(idx, cfgA.Coalescer.Width); err != nil {
				t.Fatal(err)
			}
		default:
			if err := a.Start(accsA); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < int(steps)%1024 && err == nil; i++ {
				_, err = a.Step()
			}
		}
		pool.Put(a, 1)

		b, err := pool.Get(cfgB)
		if err != nil {
			t.Fatal(err)
		}
		if b != a {
			t.Fatal("pool built a new System instead of reusing A's")
		}
		if got, want := runOutcome(t, b, accsB), freshOutcome(t, cfgB, accsB); got != want {
			t.Fatalf("pooled run diverges from a fresh one:\n got: %s\nwant: %s", got, want)
		}
	})
}
