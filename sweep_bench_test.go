package hmccoal

import (
	"context"
	"testing"
)

// benchSweepParams sizes the sweep benchmarks: short runs, the regime
// where per-job system construction (megabytes of cache tags) would
// dominate if the sweep did not reuse its Systems.
func benchSweepParams() TraceParams {
	return TraceParams{CPUs: 2, OpsPerCPU: 150, Seed: 7}
}

// BenchmarkSweepRunAll measures the full benchmark sweep (12 benchmarks ×
// 4 jobs) at -workers 1: one pooled System serves every job.
func BenchmarkSweepRunAll(b *testing.B) {
	p := benchSweepParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunAllContext(context.Background(), p, SweepOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTimeout measures a dense single-benchmark grid — many
// small runs replaying one shared trace and its index.
func BenchmarkSweepTimeout(b *testing.B) {
	p := benchSweepParams()
	timeouts := make([]uint64, 24)
	for i := range timeouts {
		timeouts[i] = uint64(4 + 2*i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p,
			SweepOptions{Workers: 1}, AxisOf("timeout", timeouts)); err != nil {
			b.Fatal(err)
		}
	}
}
