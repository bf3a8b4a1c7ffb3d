//go:build !race

// Race instrumentation allocates on its own, so the exact counts below
// hold only in a non-race build. Run the gate alone, on one P:
//
//	GOMAXPROCS=1 go test -run TestAllocationGate -count=1 .

package hmccoal

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hmccoal/internal/sim"
)

// TestAllocationGate pins the exact heap allocation count and allocated
// bytes of NewSystem, and the count of one Start→Finish run, at the
// default hierarchy, for every miss-handling architecture under both
// front-ends, on one fixed seeded HPCG trace (the BenchmarkSim workload);
// of a pooled run, the sweep path, under both front-ends; of a sweep's
// payload analysis of that trace; and of generating it.
// Allocation counts and bytes are deterministic, so any change fails
// here: if it is intended, re-measure and update the pins in the same
// change, and say why.
func TestAllocationGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On one P no migration can start a second tiny-allocator block
	// mid-call, which would move the byte count by 16.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	accs, err := GenerateTrace("HPCG", benchParams())
	if err != nil {
		t.Fatal(err)
	}
	const genAllocs = 53
	gen := testing.AllocsPerRun(3, func() {
		if _, err := GenerateTrace("HPCG", benchParams()); err != nil {
			t.Fatal(err)
		}
	})
	if gen != genAllocs {
		t.Errorf("GenerateTrace(HPCG) %v allocs, want %v", gen, genAllocs)
	}
	cases := []struct {
		mode       Mode
		fe         FrontendKind
		build, run float64
		buildBytes uint64
	}{
		{ModeBaseline, FrontendTwoPhase, 73, 222, 2419352},
		{ModeDMCOnly, FrontendTwoPhase, 73, 155, 2419352},
		{ModeTwoPhase, FrontendTwoPhase, 73, 155, 2419352},
		{ModeBaseline, FrontendWarp, 22, 222, 2414848},
		{ModeDMCOnly, FrontendWarp, 22, 184, 2414848},
		{ModeTwoPhase, FrontendWarp, 22, 184, 2414848},
	}
	const runs = 3
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Mode, cfg.Frontend = tc.mode, tc.fe
		build := testing.AllocsPerRun(runs, func() {
			if _, err := NewSystem(cfg); err != nil {
				t.Fatal(err)
			}
		})
		buildBytes := allocBytes(func() {
			if _, err := NewSystem(cfg); err != nil {
				t.Fatal(err)
			}
		})
		// A System runs once per Start: build one per measured run (plus
		// the warm-up call AllocsPerRun makes) before counting. Each Run
		// indexes the trace afresh, so it also builds the index's
		// private-level filter: 9 of the run's allocations are that index
		// (on the heap, as its filter lock escapes), the filter, its
		// per-access miss array, and the L1/L2 pair the filter walks the
		// streams through (3 per cache, dropped when the walk ends).
		systems := make([]*System, runs+1)
		for i := range systems {
			if systems[i], err = NewSystem(cfg); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		run := testing.AllocsPerRun(runs, func() {
			sys := systems[next]
			next++
			if _, err := sys.Run(accs); err != nil {
				t.Fatal(err)
			}
		})
		if build != tc.build || run != tc.run {
			t.Errorf("%v/%v: NewSystem %v allocs, Start→Finish %v; want %v and %v",
				tc.mode, tc.fe, build, run, tc.build, tc.run)
		}
		if buildBytes != tc.buildBytes {
			t.Errorf("%v/%v: NewSystem allocates %d bytes, want %d", tc.mode, tc.fe, buildBytes, tc.buildBytes)
		}
		systems = nil
		runtime.GC() // GC is off: free this case's systems before the next
	}

	// The path every sweep job takes: Get of a Reset System from a pool,
	// then StartIndexed→Finish over a shared trace index. The index's
	// private-level filter is built in AllocsPerRun's warm-up run, so the
	// measured runs only replay the LLC.
	idx, err := NewTraceIndex(accs, DefaultConfig().Hierarchy.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fe     FrontendKind
		pooled float64
	}{{FrontendTwoPhase, 9}, {FrontendWarp, 7}} {
		cfg := DefaultConfig()
		cfg.Mode, cfg.Frontend = ModeTwoPhase, tc.fe
		var pool sim.Pool
		pooled := testing.AllocsPerRun(runs, func() {
			sys, err := pool.Get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunIndexed(idx); err != nil {
				t.Fatal(err)
			}
			pool.Put(sys, 1)
		})
		if pooled != tc.pooled {
			t.Errorf("%v: pooled Get→Start→Finish %v allocs, want %v", tc.fe, pooled, tc.pooled)
		}
	}

	// A payload-analysis job: the generated streams' private-level misses
	// walked in tick order through a pooled System's LLC (the filter is
	// built in the warm-up run).
	st, err := generateStreams("HPCG", benchParams())
	if err != nil {
		t.Fatal(err)
	}
	sidx, err := sim.NewStreamIndex(st, DefaultConfig().Hierarchy.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	const payAllocs = 4
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pay := testing.AllocsPerRun(runs, func() {
		if _, err := sys.AnalyzePayload(sidx, cfg.Coalescer.Width); err != nil {
			t.Fatal(err)
		}
	})
	if pay != payAllocs {
		t.Errorf("AnalyzePayload %v allocs, want %v", pay, payAllocs)
	}
}

// allocBytes returns the heap bytes one call of f allocates, as the
// smallest MemStats.TotalAlloc delta over a few calls after a warm-up
// call. A goroutine left over from an earlier test can allocate during a
// call and only add to its delta, so the smallest delta is f's own: with
// GC off it is as deterministic as an allocation count.
func allocBytes(f func()) uint64 {
	f()
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
