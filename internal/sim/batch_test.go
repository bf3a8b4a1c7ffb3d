package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/fault"
	"hmccoal/internal/membackend"
	"hmccoal/internal/trace"
)

// soloRun executes one job the single-system way: the reference results
// every batch width must reproduce byte-for-byte.
func soloRun(t *testing.T, cfg Config, accs []trace.Access) Result {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunBatchMatchesSolo is the batch engine's core contract: per-run
// results are byte-identical to K=1 across every architecture × backend
// combination, at width 1 and width 8.
func TestRunBatchMatchesSolo(t *testing.T) {
	accs := genTrace(t, "HPCG", 300)
	idx, err := NewTraceIndex(accs, DefaultConfig().Hierarchy.CPUs)
	if err != nil {
		t.Fatal(err)
	}

	var jobs []BatchJob
	var want []Result
	for _, mode := range []Mode{Baseline, DMCOnly, TwoPhase} {
		for _, kind := range []membackend.Kind{membackend.KindHMC, membackend.KindDDR, membackend.KindIdeal} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Backend = kind
			jobs = append(jobs, BatchJob{
				Name:  mode.String() + "/" + kind.String(),
				Cfg:   cfg,
				Accs:  accs,
				Index: idx,
			})
			want = append(want, soloRun(t, cfg, accs))
		}
	}

	for _, width := range []int{1, 8} {
		got, err := RunBatch(jobs, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(got) != len(jobs) {
			t.Fatalf("width %d: %d results for %d jobs", width, len(got), len(jobs))
		}
		for i := range jobs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("width %d: job %s diverges from solo run", width, jobs[i].Name)
			}
			if g, w := got[i].Summary(), want[i].Summary(); g != w {
				t.Errorf("width %d: job %s summary not byte-identical:\n got: %s\nwant: %s",
					width, jobs[i].Name, g, w)
			}
		}
	}
}

// TestRunBatchFrontendMatrix extends the batch contract across the
// front-end seam: every {front-end × scheduler × backend} combination
// produces byte-identical results at K=1 and K=8, each equal to its solo
// reference — the determinism floor under the new -frontend/-sched axes.
func TestRunBatchFrontendMatrix(t *testing.T) {
	accs := genTrace(t, "HPCG", 300)
	idx, err := NewTraceIndex(accs, DefaultConfig().Hierarchy.CPUs)
	if err != nil {
		t.Fatal(err)
	}

	var jobs []BatchJob
	var want []Result
	for _, fe := range []coalescer.Kind{coalescer.KindTwoPhase, coalescer.KindWarp} {
		for _, sched := range []coalescer.Sched{coalescer.SchedFRFCFS, coalescer.SchedHetero} {
			for _, kind := range []membackend.Kind{membackend.KindHMC, membackend.KindDDR, membackend.KindIdeal} {
				cfg := DefaultConfig()
				cfg.Frontend = fe
				cfg.Sched = sched
				cfg.Backend = kind
				jobs = append(jobs, BatchJob{
					Name:  fe.String() + "/" + sched.String() + "/" + kind.String(),
					Cfg:   cfg,
					Accs:  accs,
					Index: idx,
				})
				want = append(want, soloRun(t, cfg, accs))
			}
		}
	}

	for _, width := range []int{1, 8} {
		got, err := RunBatch(jobs, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range jobs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("width %d: job %s diverges from solo run", width, jobs[i].Name)
			}
		}
	}
}

// TestRunBatchFaultyLane mixes one BER>0 lane into an otherwise clean
// batch: the faulty run must observe faults, the clean runs must not, and
// all must equal their solo references — lanes are fully independent.
func TestRunBatchFaultyLane(t *testing.T) {
	accs := genTrace(t, "STREAM", 300)

	clean := DefaultConfig()
	faulty := DefaultConfig()
	faulty.HMC.Fault = fault.Config{Seed: 7, BER: 1e-4, MaxRetries: 3}

	jobs := []BatchJob{
		{Name: "clean-a", Cfg: clean, Accs: accs},
		{Name: "faulty", Cfg: faulty, Accs: accs},
		{Name: "clean-b", Cfg: clean, Accs: accs},
	}
	got, err := RunBatch(jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got[1].FaultsObserved() {
		t.Error("faulty lane observed no faults (BER may be too low for this trace)")
	}
	if got[0].FaultsObserved() || got[2].FaultsObserved() {
		t.Error("clean lanes observed faults — lane state leaked")
	}
	if !reflect.DeepEqual(got[0], got[2]) {
		t.Error("identical clean jobs produced different results")
	}
	if want := soloRun(t, faulty, accs); !reflect.DeepEqual(got[1], want) {
		t.Error("faulty lane diverges from its solo run")
	}
	if want := soloRun(t, clean, accs); !reflect.DeepEqual(got[0], want) {
		t.Error("clean lane diverges from its solo run")
	}
}

// TestRunBatchWidthClamp checks degenerate widths: zero/negative clamp to
// one lane, widths beyond the job count clamp down, and an empty batch is
// a no-op.
func TestRunBatchWidthClamp(t *testing.T) {
	accs := genTrace(t, "EP", 120)
	job := BatchJob{Name: "ep", Cfg: DefaultConfig(), Accs: accs}
	want := soloRun(t, DefaultConfig(), accs)

	for _, width := range []int{-1, 0, 1, 5} {
		got, err := RunBatch([]BatchJob{job, job}, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, r := range got {
			if !reflect.DeepEqual(r, want) {
				t.Errorf("width %d: job %d diverges", width, i)
			}
		}
	}

	if got, err := RunBatch(nil, 4); err != nil || len(got) != 0 {
		t.Errorf("empty batch: got %d results, err %v", len(got), err)
	}
}

// TestRunBatchBadJob checks that a broken job aborts the batch with an
// error naming the job.
func TestRunBatchBadJob(t *testing.T) {
	accs := genTrace(t, "EP", 120)
	bad := DefaultConfig()
	bad.Hierarchy.CPUs = 0
	jobs := []BatchJob{
		{Name: "good", Cfg: DefaultConfig(), Accs: accs},
		{Name: "bad", Cfg: bad, Accs: accs},
	}
	_, err := RunBatch(jobs, 2)
	if err == nil {
		t.Fatal("batch with an invalid job succeeded")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q does not name the failing job", err)
	}
}

// TestSystemReset checks the lane-recycling primitive directly: a reset
// system reruns to the exact same result as a fresh one, including across
// a config change that keeps the hierarchy, and rejects hierarchy changes.
func TestSystemReset(t *testing.T) {
	accs := genTrace(t, "FT", 300)

	cfg := DefaultConfig()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run(accs)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	again, err := s.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("reset system diverges from its own first run")
	}

	// Same hierarchy, different mode and backend: reuse must still match a
	// fresh build.
	cfg2 := DefaultConfig()
	cfg2.Mode = Baseline
	cfg2.Backend = membackend.KindDDR
	if err := s.Reset(cfg2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	if want := soloRun(t, cfg2, accs); !reflect.DeepEqual(got, want) {
		t.Error("reset into a new config diverges from a fresh system")
	}

	// Recycling across front-end kinds: a lane that ran two-phase must
	// rebuild as a clean warp/hetero system, and back again.
	cfg4 := DefaultConfig()
	cfg4.Frontend = coalescer.KindWarp
	cfg4.Sched = coalescer.SchedHetero
	if err := s.Reset(cfg4); err != nil {
		t.Fatal(err)
	}
	got, err = s.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	if want := soloRun(t, cfg4, accs); !reflect.DeepEqual(got, want) {
		t.Error("reset into the warp front-end diverges from a fresh system")
	}
	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	got, err = s.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, got) {
		t.Error("reset back to the default front-end diverges from the first run")
	}

	// A different hierarchy cannot be recycled into.
	cfg3 := DefaultConfig()
	cfg3.Hierarchy.CPUs = 4
	if err := s.Reset(cfg3); err == nil {
		t.Error("Reset accepted a different hierarchy")
	}
}

// TestTraceIndexValidation covers the shared-index error paths.
func TestTraceIndexValidation(t *testing.T) {
	accs := genTrace(t, "EP", 120)

	if _, err := NewTraceIndex(accs, 4); err == nil {
		t.Error("index for 4 CPUs accepted a 12-CPU trace")
	}

	idx, err := NewTraceIndex(accs, 12)
	if err != nil {
		t.Fatal(err)
	}
	if idx.CPUs() != 12 || idx.Len() != len(accs) {
		t.Errorf("index reports %d CPUs/%d accesses, want 12/%d", idx.CPUs(), idx.Len(), len(accs))
	}

	cfg := DefaultConfig()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartIndexed(nil); err == nil {
		t.Error("StartIndexed accepted a nil index")
	}

	small := DefaultConfig()
	small.Hierarchy.CPUs = 6
	s2, err := NewSystem(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.StartIndexed(idx); err == nil {
		t.Error("StartIndexed accepted an index bucketed for a different CPU count")
	}
}

// bytesPerRun measures heap bytes allocated per call of f, averaged over
// runs — the byte-weighted sibling of testing.AllocsPerRun.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestResetCheapAllocs pins the point of lane recycling: a Reset+rerun
// cycle must re-allocate only the per-run machinery (device, coalescer),
// never the cache hierarchy — the tag arrays, megabytes per system, are
// reused generationally. Reuse must cut both the allocation count and,
// decisively, the allocated bytes.
func TestResetCheapAllocs(t *testing.T) {
	accs := genTrace(t, "EP", 120)
	cfg := DefaultConfig()
	idx, err := NewTraceIndex(accs, cfg.Hierarchy.CPUs)
	if err != nil {
		t.Fatal(err)
	}

	freshRun := func() {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(accs); err != nil {
			t.Fatal(err)
		}
	}

	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(accs); err != nil {
		t.Fatal(err)
	}
	reusedRun := func() {
		if err := s.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := s.StartIndexed(idx); err != nil {
			t.Fatal(err)
		}
		for {
			done, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	freshAllocs := testing.AllocsPerRun(3, freshRun)
	reusedAllocs := testing.AllocsPerRun(3, reusedRun)
	if reusedAllocs >= freshAllocs {
		t.Errorf("reused lane allocates %.0f objects/run, fresh system %.0f — recycling saves nothing",
			reusedAllocs, freshAllocs)
	}

	freshBytes := bytesPerRun(3, freshRun)
	reusedBytes := bytesPerRun(3, reusedRun)
	if reusedBytes >= freshBytes/10 {
		t.Errorf("reused lane allocates %.0f B/run, fresh system %.0f B/run — tag arrays are being rebuilt",
			reusedBytes, freshBytes)
	}
}
