package sim

import (
	"fmt"
	"testing"

	"hmccoal/internal/cache"
	"hmccoal/internal/coalescer"
	"hmccoal/internal/fault"
	"hmccoal/internal/membackend"
	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

// fuzzHierarchy is a small 4-CPU cache stack every fuzzed configuration
// shares, so one Pool System serves them all and a run costs milliseconds.
var fuzzHierarchy = cache.HierarchyConfig{
	CPUs: 4,
	L1:   cache.Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, HitLatency: 4},
	L2:   cache.Config{SizeBytes: 16 << 10, Ways: 8, LineBytes: 64, HitLatency: 12},
	LLC:  cache.Config{SizeBytes: 64 << 10, Ways: 16, LineBytes: 64, HitLatency: 40},
}

// fuzzConfig decodes a system configuration on fuzzHierarchy from bits:
// mode, front-end, scheduler, backend, link faults (HMC only), checks,
// sorter timeout, MSHR count and, with faults, a one-retry link budget
// that sends many spans to the coalescer's retry heap. A small miss
// budget makes cores stall.
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
	cfg.Backend = membackend.Kind(pick(3))
	if ber := pick(4); ber > 0 && cfg.Backend == membackend.KindHMC {
		cfg.HMC.Fault = fault.Config{Seed: uint64(pick(4)) + 1, BER: []float64{1e-5, 1e-4, 1e-3}[ber-1]}
	}
	cfg.Checks = pick(2) == 1
	cfg.Coalescer.TimeoutCycles = []uint64{16, 24, 28}[pick(3)]
	cfg.Coalescer.MSHR.Entries = []int{4, 8, 16}[pick(3)]
	if cfg.HMC.Fault.BER > 0 {
		cfg.HMC.Fault.MaxRetries = []int{0, 1}[pick(2)]
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

// freshOutcome runs accs on a System built fresh from cfg.
func freshOutcome(t *testing.T, cfg Config, accs []trace.Access) string {
	t.Helper()
	return outcome(mustSystem(t, cfg).Run(accs))
}

// FuzzResetEquivalence holds System reuse to a fresh System for any pair
// of configurations that share a hierarchy. Run A goes to the end, is a
// payload analysis instead (as a sweep's payload job runs on a pooled
// System), is abandoned after a fuzzed number of steps, or is parked there
// with Snapshot. Run B on the pooled System must then produce exactly what
// B produces on a fresh System. A parked A resumes as a parked job does:
// restored into whatever System the Pool holds after B, it must show the
// coalescer state it was parked with and finish exactly as an
// uninterrupted A.
func FuzzResetEquivalence(f *testing.F) {
	f.Add(uint32(0), uint32(1), uint8(0), uint8(1), uint8(0), uint16(0))
	f.Add(uint32(7), uint32(200), uint8(2), uint8(3), uint8(1), uint16(300))
	f.Add(uint32(1234), uint32(99), uint8(1), uint8(4), uint8(3), uint16(500))
	f.Add(uint32(5), uint32(1234), uint8(3), uint8(0), uint8(3), uint16(150))
	f.Add(uint32(22), uint32(8), uint8(4), uint8(2), uint8(2), uint16(900))
	// Parks a DMC-only run at BER 1e-3 (bits 7021) with one link retry
	// (+10368, the product of the radices before it) while three failed
	// spans wait in the retry heap, and a later failure falls due on the
	// same tick as one of them: restored without its retry sequence
	// counter, the coalescer re-issues them in the wrong order.
	f.Add(uint32(7021+10368), uint32(0), uint8(2), uint8(0), uint8(3), uint16(660))

	f.Fuzz(func(t *testing.T, bitsA, bitsB uint32, seedA, seedB, fate uint8, steps uint16) {
		cfgA, cfgB := fuzzConfig(bitsA), fuzzConfig(bitsB)
		accsA, accsB := fuzzTrace(t, seedA), fuzzTrace(t, seedB)
		var pool Pool
		a, err := pool.Get(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		var snap *Snapshot
		var parked string
		switch fate % 4 {
		case 0:
			_, _ = a.Run(accsA) // a faulty run may end in a watchdog error
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
			if fate%4 == 3 && err == nil {
				if snap, err = a.Snapshot(); err != nil {
					t.Fatal(err)
				}
				parked = a.coal.DebugState()
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
		if got, want := outcome(b.Run(accsB)), freshOutcome(t, cfgB, accsB); got != want {
			t.Fatalf("pooled run diverges from a fresh one:\n got: %s\nwant: %s", got, want)
		}
		if snap == nil {
			return
		}

		pool.Put(b, 1)
		r, err := pool.Get(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := r.coal.DebugState(); got != parked {
			t.Fatalf("restored coalescer %s, parked %s", got, parked)
		}
		if got, want := outcome(r.runToEnd()), freshOutcome(t, cfgA, accsA); got != want {
			t.Fatalf("restored run diverges from an uninterrupted one:\n got: %s\nwant: %s", got, want)
		}
	})
}
