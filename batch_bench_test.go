package hmccoal

import (
	"context"
	"fmt"
	"testing"
)

// benchSweepParams sizes the sweep benchmarks: short runs over the full
// 12-CPU evaluation system, the regime where per-job system construction
// (megabytes of cache tags) dominates and lane recycling pays.
func benchSweepParams() TraceParams {
	return TraceParams{CPUs: 2, OpsPerCPU: 150, Seed: 7}
}

// BenchmarkSweepRunAll measures the full benchmark sweep (12 benchmarks ×
// 4 jobs) at increasing lockstep batch widths, all at -workers 1: any
// speedup is pure lane reuse, not parallelism (BENCH_6.json).
func BenchmarkSweepRunAll(b *testing.B) {
	p := benchSweepParams()
	for _, batch := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunAllContext(context.Background(), p,
					SweepOptions{Workers: 1, Batch: batch}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepTimeout measures a dense single-benchmark grid — many
// small runs replaying one shared trace — where batching amortizes both
// construction and trace bucketing.
func BenchmarkSweepTimeout(b *testing.B) {
	p := benchSweepParams()
	timeouts := make([]uint64, 24)
	for i := range timeouts {
		timeouts[i] = uint64(4 + 2*i)
	}
	for _, batch := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p,
					SweepOptions{Workers: 1, Batch: batch}, AxisOf("timeout", timeouts)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
