package cache

import (
	"slices"
	"testing"

	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

// BenchmarkCacheAccess measures the single-level tag/LRU path: a strided
// footprint larger than the cache so hits and misses interleave.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := New(Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*7)%(1<<16), i&3 == 0)
	}
}

// BenchmarkHierarchyReplay times the cache layer on its own, one pass at
// a time, over a seeded 12-CPU × 5000-op trace on the default hierarchy,
// reported as ns/access:
//
//   - filter: the private-level pass a trace pays once, every CPU's stream
//     walked through one L1/L2 pair reset between streams (FilterPrivate);
//   - llc: the shared-LLC replay every run pays, the flagged lines walked
//     in tick order through an LLC reset before each replay (ReplayLLC);
//   - full: the three-level walk per access that the two replace (the
//     tests' oracle), caches reset before each replay.
//
// SSCA2 and CG miss far beyond the LLC; FT and STREAM stream through it.
func BenchmarkHierarchyReplay(b *testing.B) {
	for _, bench := range []string{"SSCA2", "CG", "FT", "STREAM"} {
		g, ok := workloads.ByName(bench)
		if !ok {
			b.Fatalf("no workload %s", bench)
		}
		st, err := g.Generate(workloads.Params{CPUs: 12, OpsPerCPU: 5000, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		// The tick-ordered trace, and each access's stream position.
		var accs []trace.Access
		var pos []int
		next := slices.Clone(st.Off)
		m := st.Merged()
		for run := m.Next(); run != nil; run = m.Next() {
			for _, a := range run {
				pos = append(pos, int(next[a.CPU]))
				next[a.CPU]++
				accs = append(accs, a)
			}
		}
		cfg := DefaultHierarchyConfig()
		perAccess := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/access")
		}
		b.Run(bench+"/filter", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FilterPrivate(cfg, st.Accs, st.Off, nil); err != nil {
					b.Fatal(err)
				}
			}
			perAccess(b)
		})
		f, err := FilterPrivate(cfg, st.Accs, st.Off, nil)
		if err != nil {
			b.Fatal(err)
		}
		llc, err := New(cfg.LLC)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench+"/llc", func(b *testing.B) {
			b.ReportAllocs()
			var misses []Miss
			for i := 0; i < b.N; i++ {
				llc.Reset()
				for k := range accs {
					misses = llc.ReplayLLC(&f, pos[k], &accs[k], misses[:0])
				}
			}
			perAccess(b)
		})
		o, err := newOracle(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.reset()
				for _, a := range accs {
					if _, err := o.Access(a); err != nil {
						b.Fatal(err)
					}
				}
			}
			perAccess(b)
		})
	}
}
