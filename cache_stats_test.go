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

// TestSweepRunnerCacheStats pins the trace-cache counter semantics: each
// job counts one hit or one miss, the first job on a benchmark a miss and
// every later job on it a hit. Each spec keeps the trace it is on, so a
// second spec does not evict the first's.
func TestSweepRunnerCacheStats(t *testing.T) {
	r := NewSweepRunner()
	ctx := context.Background()
	benches := Benchmarks()
	spec := timeoutSpec(t, benches[0])
	for i := range 2 {
		if _, err := r.RunJob(ctx, spec, i); err != nil {
			t.Fatal(err)
		}
	}
	if s := r.CacheStats(); s != (TraceCacheStats{Misses: 1, Hits: 1}) {
		t.Fatalf("after two jobs on one benchmark: %+v; want 1 miss, 1 hit, 0 evictions", s)
	}

	// Eight jobs over two benchmarks: four hits on the resident trace,
	// then a miss and three hits on the other.
	raw, err := json.Marshal(SweepSpec{Params: sweepTestParams(), Benches: benches[:2], Axes: []Axis{{"mode", []string{"MSHR-based", "DMC-only", "two-phase", payloadCell}}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		if _, err := r.RunJob(ctx, raw, i); err != nil {
			t.Fatal(err)
		}
	}
	if s := r.CacheStats(); s != (TraceCacheStats{Misses: 2, Hits: 8}) {
		t.Fatalf("after eight jobs on two benchmarks: %+v; want 2 misses, 8 hits, 0 evictions", s)
	}
	if _, err := r.RunJob(ctx, spec, 0); err != nil {
		t.Fatal(err)
	}
	if s := r.CacheStats(); s != (TraceCacheStats{Misses: 2, Hits: 9}) {
		t.Fatalf("back on the first spec: %+v; want its trace still resident (9 hits)", s)
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
	go dsweep.Work(ctx, addr, runner.RunJob, dsweep.WorkOptions{Name: "cachy", CacheStats: runner.CacheStats})

	spec := timeoutSpec(t, Benchmarks()[0])
	for i := range 2 {
		if _, err := coord.RunJob(context.Background(), spec, i); err != nil {
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
