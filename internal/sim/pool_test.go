package sim

import (
	"hmccoal/internal/hmc"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/fault"
	"hmccoal/internal/trace"
)

// soloRun executes one job on a freshly built System: the reference
// results every pooled run must reproduce byte-for-byte.
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

// poolRun runs one job on a System from p, as a sweep worker does, and
// hands the System back to a pool of at most limit.
func poolRun(t *testing.T, p *Pool, limit int, cfg Config, idx *TraceIndex) Result {
	t.Helper()
	s, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunIndexed(idx)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(s, limit)
	return res
}

// checkPoolMatchesSolo runs every cfg through one pool, each job on the
// previous job's System, and holds each result to its solo run.
func checkPoolMatchesSolo(t *testing.T, names []string, cfgs []Config, accs []trace.Access) {
	t.Helper()
	idx, err := NewTraceIndex(accs, DefaultConfig().Hierarchy.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	var p Pool
	for i, cfg := range cfgs {
		got := poolRun(t, &p, 1, cfg, idx)
		want := soloRun(t, cfg, accs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %s diverges from solo run", names[i])
		}
		if g, w := got.Summary(), want.Summary(); g != w {
			t.Errorf("job %s summary not byte-identical:\n got: %s\nwant: %s", names[i], g, w)
		}
	}
	if p.Len() != 1 {
		t.Errorf("pool of limit 1 holds %d Systems", p.Len())
	}
}

// TestPoolMatchesSolo is the pool's core contract: a System reused across
// every architecture × backend combination gives results byte-identical
// to a fresh System per job.
func TestPoolMatchesSolo(t *testing.T) {
	var names []string
	var cfgs []Config
	for _, mode := range []Mode{Baseline, DMCOnly, TwoPhase} {
		for _, kind := range []hmc.Kind{hmc.KindHMC, hmc.KindDDR, hmc.KindIdeal} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Backend = kind
			names = append(names, mode.String()+"/"+kind.String())
			cfgs = append(cfgs, cfg)
		}
	}
	checkPoolMatchesSolo(t, names, cfgs, genTrace(t, "HPCG", 300))
}

// TestPoolFrontendMatrix extends the contract across the front-end seam:
// every {front-end × scheduler × backend} combination run on one reused
// System equals its solo reference.
func TestPoolFrontendMatrix(t *testing.T) {
	var names []string
	var cfgs []Config
	for _, fe := range []coalescer.Kind{coalescer.KindTwoPhase, coalescer.KindWarp} {
		for _, sched := range []coalescer.Sched{coalescer.SchedFRFCFS, coalescer.SchedHetero} {
			for _, kind := range []hmc.Kind{hmc.KindHMC, hmc.KindDDR, hmc.KindIdeal} {
				cfg := DefaultConfig()
				cfg.Frontend = fe
				cfg.Sched = sched
				cfg.Backend = kind
				names = append(names, fe.String()+"/"+sched.String()+"/"+kind.String())
				cfgs = append(cfgs, cfg)
			}
		}
	}
	checkPoolMatchesSolo(t, names, cfgs, genTrace(t, "HPCG", 300))
}

// TestPoolFaultyRunDoesNotPoison runs a BER>0 job between two clean ones
// on the same pooled System: the faulty run must observe faults, the
// clean runs must not, and all must equal their solo references.
func TestPoolFaultyRunDoesNotPoison(t *testing.T) {
	accs := genTrace(t, "STREAM", 300)
	idx, err := NewTraceIndex(accs, DefaultConfig().Hierarchy.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	clean := DefaultConfig()
	faulty := DefaultConfig()
	faulty.HMC.Fault = fault.Config{Seed: 7, BER: 1e-4, MaxRetries: 3}

	var p Pool
	var got []Result
	for _, cfg := range []Config{clean, faulty, clean} {
		got = append(got, poolRun(t, &p, 1, cfg, idx))
	}
	if !got[1].FaultsObserved() {
		t.Error("faulty run observed no faults (BER may be too low for this trace)")
	}
	if got[0].FaultsObserved() || got[2].FaultsObserved() {
		t.Error("clean runs observed faults — fault state leaked through the pool")
	}
	if !reflect.DeepEqual(got[0], got[2]) {
		t.Error("identical clean jobs produced different results")
	}
	if want := soloRun(t, faulty, accs); !reflect.DeepEqual(got[1], want) {
		t.Error("faulty run diverges from its solo run")
	}
	if want := soloRun(t, clean, accs); !reflect.DeepEqual(got[0], want) {
		t.Error("clean run diverges from its solo run")
	}
}

// TestPoolBadConfig checks that an invalid job fails at Get with an error
// naming what is wrong, and leaves the pool's idle System for the next
// job.
func TestPoolBadConfig(t *testing.T) {
	accs := genTrace(t, "EP", 120)
	idx, err := NewTraceIndex(accs, DefaultConfig().Hierarchy.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	var p Pool
	poolRun(t, &p, 1, DefaultConfig(), idx)
	bad := DefaultConfig()
	bad.Coalescer.MSHR.Entries = 0
	if _, err := p.Get(bad); err == nil {
		t.Fatal("Get accepted an invalid config")
	} else if !strings.Contains(err.Error(), "mshr") {
		t.Errorf("error %q does not name the bad field", err)
	}
	if p.Len() != 1 {
		t.Fatalf("a failed Get left %d idle Systems, want 1", p.Len())
	}
	if got, want := poolRun(t, &p, 1, DefaultConfig(), idx), soloRun(t, DefaultConfig(), accs); !reflect.DeepEqual(got, want) {
		t.Error("the run after a failed Get diverges from a fresh System")
	}
}

// TestPool pins the idle list itself: Get hands out the newest idle
// System built for the job's CPU count and LLC and builds one otherwise,
// Put drops the oldest beyond the limit, a System abandoned mid-run comes
// back clean, and a System serves any private L1/L2 shape.
func TestPool(t *testing.T) {
	cfg := DefaultConfig()
	small := DefaultConfig()
	small.Hierarchy.CPUs = 4
	var p Pool
	get := func(c Config) *System {
		t.Helper()
		s, err := p.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := get(cfg), get(cfg), get(small)
	p.Put(a, 3)
	p.Put(c, 3)
	p.Put(b, 3)
	if s := get(cfg); s != b {
		t.Error("Get did not hand out the newest System with the job's hierarchy")
	}
	if s := get(small); s != c {
		t.Error("Get did not hand out the System built for the job's hierarchy")
	}
	if s := get(small); s == c || s.Config().Hierarchy != small.Hierarchy {
		t.Error("Get without a matching idle System did not build a new one")
	}
	if p.Len() != 1 {
		t.Fatalf("%d idle Systems, want 1 (a)", p.Len())
	}

	// A full pool drops its oldest, a.
	p.Put(b, 2)
	p.Put(c, 2)
	if s := get(small); s != c {
		t.Error("a full pool dropped its newest System")
	}
	if s := get(cfg); s != b {
		t.Error("a full pool dropped a System other than its oldest")
	}
	if s := get(cfg); s == a {
		t.Error("a full pool kept its oldest System")
	}
	p.Put(a, 2)

	// Abandoned mid-run, on another trace under the other front-end.
	other := genTrace(t, "SSCA2", 300)
	accs := genTrace(t, "FT", 300)
	warp := DefaultConfig()
	warp.Frontend = coalescer.KindWarp
	s := get(warp)
	if err := s.Start(other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if done, err := s.Step(); err != nil || done {
			t.Fatalf("abandoned run ended early (done %v, err %v)", done, err)
		}
	}
	p.Put(s, 1)
	if r := get(cfg); r != s {
		t.Fatal("Get did not reuse the abandoned System")
	} else if got, err := r.Run(accs); err != nil {
		t.Fatal(err)
	} else if want := soloRun(t, cfg, accs); !reflect.DeepEqual(got, want) {
		t.Error("a System abandoned mid-run came back dirty")
	}

	// Built for the default hierarchy, reused for a 16 KiB L1.
	p.Put(s, 1)
	l1 := DefaultConfig()
	l1.Hierarchy.L1.SizeBytes = 16 << 10
	want := soloRun(t, l1, other)
	if reflect.DeepEqual(want, soloRun(t, cfg, other)) {
		t.Fatal("a 16 KiB L1 does not change the run; the test cannot tell the shapes apart")
	}
	if r := get(l1); r != s {
		t.Error("Get did not reuse the System for a job that differs only in its L1")
	} else if got, err := r.Run(other); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(got, want) {
		t.Error("a System reused for a 16 KiB L1 diverges from a fresh one")
	}
}

// TestSystemReset checks the pool's recycling primitive directly: a reset
// system reruns to the exact same result as a fresh one, including across
// config changes that keep the CPU count and LLC (a private level
// included), and rejects a different CPU count or LLC.
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
	cfg2.Backend = hmc.KindDDR
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

	// Recycling across front-end kinds: a System that ran two-phase must
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

	// The private levels are not part of the System: a 16 KiB L1 over the
	// same CPUs and LLC resets in place (on SSCA2, whose run the smaller
	// L1 changes).
	cfg5 := DefaultConfig()
	cfg5.Hierarchy.L1.SizeBytes = 16 << 10
	if err := s.Reset(cfg5); err != nil {
		t.Fatal(err)
	}
	ssca := genTrace(t, "SSCA2", 300)
	got, err = s.Run(ssca)
	if err != nil {
		t.Fatal(err)
	}
	if want := soloRun(t, cfg5, ssca); !reflect.DeepEqual(got, want) {
		t.Error("reset into a 16 KiB L1 diverges from a fresh system")
	}

	// A different CPU count or LLC cannot be recycled into.
	cfg3 := DefaultConfig()
	cfg3.Hierarchy.CPUs = 4
	if err := s.Reset(cfg3); err == nil {
		t.Error("Reset accepted a different CPU count")
	}
	cfg6 := DefaultConfig()
	cfg6.Hierarchy.LLC.SizeBytes = 8 << 20
	if err := s.Reset(cfg6); err == nil {
		t.Error("Reset accepted a different LLC")
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

// TestResetCheapAllocs pins the point of pooled reuse: a Reset+rerun
// cycle must re-allocate only the per-run machinery (device, coalescer),
// never the LLC — its tag array, megabytes per system, is
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
		t.Errorf("reused System allocates %.0f objects/run, fresh system %.0f — recycling saves nothing",
			reusedAllocs, freshAllocs)
	}

	freshBytes := bytesPerRun(3, freshRun)
	reusedBytes := bytesPerRun(3, reusedRun)
	if reusedBytes >= freshBytes/10 {
		t.Errorf("reused System allocates %.0f B/run, fresh system %.0f B/run — tag arrays are being rebuilt",
			reusedBytes, freshBytes)
	}
}
