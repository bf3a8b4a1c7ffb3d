package cache

import (
	"testing"

	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

// BenchmarkCacheAccess measures the single-level tag/LRU path: a strided
// footprint larger than the cache so hits and misses interleave.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := New(Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, HitLatency: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*7)%(1<<16), i&3 == 0)
	}
}

// BenchmarkHierarchyAccess measures the full three-level walk including
// miss-record generation, the hot call of the system simulator.
func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := trace.Access{
			Addr: uint64(i*53) % (1 << 26) * 8,
			Size: 16,
			Kind: trace.Kind(i & 1), // alternate load/store
			CPU:  uint8(i % 12),
			Tick: uint64(i),
		}
		h.Access(a)
	}
}

// BenchmarkHierarchyReplay times the cache layer on its own: a seeded
// 12-CPU × 5000-op trace replayed in tick order through the default
// hierarchy, reset to empty caches before each replay, reported as
// ns/access. SSCA2 and CG miss far beyond the LLC; FT and STREAM stream
// through it.
func BenchmarkHierarchyReplay(b *testing.B) {
	for _, bench := range []string{"SSCA2", "CG", "FT", "STREAM"} {
		b.Run(bench, func(b *testing.B) {
			g, ok := workloads.ByName(bench)
			if !ok {
				b.Fatalf("no workload %s", bench)
			}
			st, err := g.Generate(workloads.Params{CPUs: 12, OpsPerCPU: 5000, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			accs := st.Flatten()
			h, err := NewHierarchy(DefaultHierarchyConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				for _, a := range accs {
					if _, _, err := h.Access(a); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/access")
		})
	}
}
