package workloads

import "testing"

// BenchmarkGenerateTrace times trace generation on its own: all 12 paper
// benchmarks per op, at the hmcservd single-job shape and at the
// hmccoal -fig all shape.
func BenchmarkGenerateTrace(b *testing.B) {
	for _, sh := range []struct {
		name string
		p    Params
	}{
		{"service-4x2000", Params{CPUs: 4, OpsPerCPU: 2000, Seed: 1}},
		{"grid-12x4000", Params{CPUs: 12, OpsPerCPU: 4000, Seed: 3}},
	} {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, g := range All() {
					if _, err := g.Generate(sh.p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
