package hmccoal

// End-to-end single-run benchmarks for the simulator core. These are the
// regression guard for the hot-path work: the sweep engine (internal/sweep)
// scales across runs, so the wall clock of the whole evaluation pipeline is
// bounded by the ns/op measured here.
//
//	go test -bench 'Sim/' -benchmem       # the guarded numbers
//	go test -run '^$' -bench Sim -benchtime=1x   # CI smoke (compile + 1 iter)

import (
	"fmt"
	"testing"
)

// simBenchTrace is the fixed workload the Sim benchmarks replay: the same
// scale the figure benches use, so ns/op here predicts sweep wall-clock.
func simBenchTrace(b *testing.B, name string) []Access {
	b.Helper()
	accs, err := GenerateTrace(name, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	return accs
}

// BenchmarkSim measures one full System.Run per iteration for each
// miss-handling architecture. The per-iteration cost includes NewSystem
// (each iteration builds its System, the cost a run pays without a
// pool); steady-state allocations are the optimization target, so
// allocs/op is reported.
func BenchmarkSim(b *testing.B) {
	accs := simBenchTrace(b, "HPCG")
	for _, mode := range []Mode{ModeBaseline, ModeDMCOnly, ModeTwoPhase} {
		name := map[Mode]string{
			ModeBaseline: "Baseline", ModeDMCOnly: "DMCOnly", ModeTwoPhase: "TwoPhase",
		}[mode]
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			var res Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = sys.Run(accs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(accs)), "ns/access")
			b.ReportMetric(100*res.CoalescingEfficiency(), "coal_eff_%")
		})
	}
}

// BenchmarkSimWorkloads runs the TwoPhase system over each benchmark
// workload's distinct access shape (streaming, strided, random, fenced).
func BenchmarkSimWorkloads(b *testing.B) {
	for _, name := range []string{"STREAM", "FT", "EP", "SG"} {
		b.Run(name, func(b *testing.B) {
			accs := simBenchTrace(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(accs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(accs)), "ns/access")
		})
	}
}

// BenchmarkSimFaults runs the two-phase system with link fault injection
// at increasing error rates. The ber0 case IS the no-fault hot path with
// the fault machinery compiled in: its allocs/op must equal
// BenchmarkSim/TwoPhase (BENCH_2.json pins 328) — fault support costs
// zero allocations until a fault actually fires.
func BenchmarkSimFaults(b *testing.B) {
	accs := simBenchTrace(b, "HPCG")
	for _, ber := range []float64{0, 1e-6, 1e-4} {
		b.Run(fmt.Sprintf("ber%.0e", ber), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.HMC.Fault = FaultConfig{Seed: 1, BER: ber}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(accs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(accs)), "ns/access")
		})
	}
}

// BenchmarkSimScale checks that per-access cost stays flat as the trace
// grows (the Figure 13-scale regime of millions of accesses).
func BenchmarkSimScale(b *testing.B) {
	for _, ops := range []int{1500, 6000, 24000} {
		b.Run(fmt.Sprintf("ops%d", ops), func(b *testing.B) {
			p := benchParams()
			p.OpsPerCPU = ops
			accs, err := GenerateTrace("HPCG", p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(accs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(accs)), "ns/access")
		})
	}
}
