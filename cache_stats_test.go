package hmccoal

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hmccoal/internal/dsweep"
)

// timeoutSpec builds a one-benchmark timeout grid for cache-stats tests.
func timeoutSpec(t *testing.T, bench string) []byte {
	t.Helper()
	raw, err := json.Marshal(SweepSpec{
		Params:  sweepTestParams(),
		Benches: []string{bench},
		Axes:    []Axis{AxisOf("timeout", []uint64{16, 28})},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSweepRunnerCacheStats pins the trace-cache counter semantics: the
// first group on a benchmark is a miss, every later group on the same
// benchmark a hit, and a group counts once per benchmark however many of
// its jobs replay that trace. Each spec keeps the trace it is on, so a
// second spec does not evict the first's.
func TestSweepRunnerCacheStats(t *testing.T) {
	r := NewSweepRunner()
	ctx := context.Background()
	benches := Benchmarks()
	spec := timeoutSpec(t, benches[0])
	for g := 0; g < 2; g++ {
		if _, err := r.RunGroup(ctx, spec, []int{g}); err != nil {
			t.Fatal(err)
		}
	}
	if s := r.CacheStats(); s != (TraceCacheStats{Misses: 1, Hits: 1}) {
		t.Fatalf("after two groups on one benchmark: %+v; want 1 miss, 1 hit, 0 evictions", s)
	}

	// One eight-job group over two benchmarks: a hit on the resident
	// trace and a miss on the other, each counted once.
	raw, err := json.Marshal(SweepSpec{Params: sweepTestParams(), Benches: benches[:2], Axes: []Axis{{"mode", []string{"MSHR-based", "DMC-only", "two-phase", payloadCell}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunGroup(ctx, raw, []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if s := r.CacheStats(); s != (TraceCacheStats{Misses: 2, Hits: 2}) {
		t.Fatalf("after an 8-job group on two benchmarks: %+v; want 2 misses, 2 hits, 0 evictions", s)
	}
	if _, err := r.RunGroup(ctx, spec, []int{0}); err != nil {
		t.Fatal(err)
	}
	if s := r.CacheStats(); s != (TraceCacheStats{Misses: 2, Hits: 3}) {
		t.Fatalf("back on the first spec: %+v; want its trace still resident (3 hits)", s)
	}
}

// TestStatusCarriesCacheCounts drives a real coordinator/worker pair and
// asserts the worker's trace-cache counters travel in Result frames all
// the way into the coordinator's Status() rows.
func TestStatusCarriesCacheCounts(t *testing.T) {
	coord, addr := startTestCoordinator(t, dsweep.Options{})
	runner := NewSweepRunner()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go dsweep.Work(ctx, addr, runner.RunGroup, dsweep.WorkOptions{
		Name: "cachy",
		CacheStats: func() dsweep.CacheCounts {
			s := runner.CacheStats()
			return dsweep.CacheCounts{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions}
		},
	})

	spec := timeoutSpec(t, Benchmarks()[0])
	for g := 0; g < 2; g++ {
		if _, err := coord.RunGroup(context.Background(), spec, []int{g}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := coord.Status()
		if len(s.PerWorker) == 1 && s.PerWorker[0].Cache.Misses == 1 && s.PerWorker[0].Cache.Hits == 1 {
			if got := s.String(); !strings.Contains(got, "trace cache") {
				t.Fatalf("Status.String() misses the trace-cache column:\n%s", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache counters never reached Status: %+v", s.PerWorker)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
