package soak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/invariant"
	"hmccoal/internal/membackend"
	"hmccoal/internal/sim"
	"hmccoal/internal/trace"
)

// TestScenarioDeterministic proves the grid is a pure function of
// (seed, index) — the property every repro file depends on.
func TestScenarioDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := MakeScenario(42, i), MakeScenario(42, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scenario %d not deterministic:\n%+v\nvs\n%+v", i, a, b)
		}
	}
	if reflect.DeepEqual(MakeScenario(42, 0), MakeScenario(43, 0)) {
		t.Error("different seeds produced identical scenarios")
	}
}

// TestScenarioWireBytes pins a non-default machine's scenario as the
// string-field scenario encoded and printed it, so repro files written
// before the typed Variant replay unchanged; a file naming an unknown
// machine fails to read.
func TestScenarioWireBytes(t *testing.T) {
	o := Options{Seed: 1}
	o.Variant = sim.Variant{Backend: membackend.KindIdeal, Frontend: coalescer.KindWarp, Sched: coalescer.SchedHetero}
	sc := o.scenario(5)
	const want = `{"index":5,"seed":1,"workload":"CG","cpus":8,"ops_per_cpu":80,"trace_seed":2580964887241856397,"mode":2,"ber":0,"drop_rate":0.0001,"fault_seed":13724892769774616931,"timeout_cycles":16,"adaptive_timeout":false,"backend":"ideal","frontend":"warp","sched":"hetero"}`
	if raw, err := json.Marshal(sc); err != nil || string(raw) != want {
		t.Errorf("scenario encodes to\n %s (%v)\nwant\n %s", raw, err, want)
	}
	if got := sc.String(); got != "run 5: CG cpus=8 ops=80 mode=two-phase ber=0 drop=0.0001 timeout=16 adaptive=false backend=ideal frontend=warp sched=hetero" {
		t.Errorf("scenario prints as %q", got)
	}

	dir := t.TempDir()
	for _, c := range []struct {
		backend string
		want    membackend.Kind
	}{{`""`, membackend.KindHMC}, {`"hmc"`, membackend.KindHMC}, {`"ideal"`, membackend.KindIdeal}, {`"sram"`, -1}} {
		path := filepath.Join(dir, "repro.json")
		raw := strings.Replace(want, `"backend":"ideal"`, `"backend":`+c.backend, 1)
		if err := os.WriteFile(path, []byte(`{"scenario":`+raw+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := ReadRepro(path)
		switch {
		case c.want < 0 && err == nil:
			t.Errorf("backend %s: repro read", c.backend)
		case c.want >= 0 && err != nil:
			t.Errorf("backend %s: %v", c.backend, err)
		case c.want >= 0 && r.Scenario.Backend != c.want:
			t.Errorf("backend %s reads as %v, want %v", c.backend, r.Scenario.Backend, c.want)
		}
	}
}

// TestScenarioTraceRegenerates proves a scenario's trace is reproducible
// and non-trivial for a spread of grid points.
func TestScenarioTraceRegenerates(t *testing.T) {
	for i := 0; i < 5; i++ {
		sc := MakeScenario(7, i)
		a, err := sc.Trace()
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		b, _ := sc.Trace()
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: trace not reproducible (len %d)", sc, len(a))
		}
	}
}

// TestClassify pins the outcome taxonomy: violations always fail, watchdog
// errors are expected only under injected drops, everything else fails.
func TestClassify(t *testing.T) {
	v := invariant.Violatef(invariant.RuleMSHRLeak, 5, "", "leak")
	wd := fmt.Errorf("coalescer: %w: 2 response(s) never arrived", coalescer.ErrWatchdog)
	drop := Scenario{DropRate: 1e-4}
	clean := Scenario{}
	cases := []struct {
		sc   Scenario
		err  error
		want Outcome
	}{
		{clean, nil, OK},
		{drop, wd, Expected},
		{clean, wd, Failed},
		{drop, fmt.Errorf("wrap: %w", v), Failed},
		{clean, v, Failed},
		{drop, errors.New("segfault adjacent"), Failed},
	}
	for i, c := range cases {
		if got := Classify(c.sc, c.err); got != c.want {
			t.Errorf("case %d: Classify(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
}

// failAfter builds a RunFunc that reports an invariant violation whenever
// the trace still contains at least minHits accesses from the culprit CPU.
// It is fully deterministic, so the shrinker can bisect against it.
func failAfter(culprit uint8, minHits int) RunFunc {
	return func(sc Scenario, accs []trace.Access) error {
		hits := 0
		for _, a := range accs {
			if a.CPU == culprit {
				hits++
				if hits >= minHits {
					return invariant.Violatef(invariant.RuleDoubleCompletion, a.Tick, "",
						"cpu %d completed twice", culprit)
				}
			}
		}
		return nil
	}
}

// TestShrinkMinimizesInjectedViolation drives the shrinker with a seeded
// deterministic violation and checks the repro is genuinely minimal: the
// prefix stops at the triggering access and every innocent CPU is dropped.
func TestShrinkMinimizesInjectedViolation(t *testing.T) {
	sc := MakeScenario(99, 0)
	accs, err := sc.Trace()
	if err != nil {
		t.Fatal(err)
	}
	const culprit, minHits = 1, 3
	run := failAfter(culprit, minHits)
	if Classify(sc, run(sc, accs)) != Failed {
		t.Fatal("injected violation did not fire on the full trace")
	}

	rep := Shrink(sc, accs, run, 200)
	if rep.Error == "" || !strings.Contains(rep.Error, "completed twice") {
		t.Fatalf("repro error = %q", rep.Error)
	}
	if rep.OrigLen != len(accs) {
		t.Errorf("OrigLen = %d, want %d", rep.OrigLen, len(accs))
	}
	if rep.PrefixLen >= len(accs) {
		t.Errorf("shrinker did not reduce the trace: prefix %d of %d", rep.PrefixLen, len(accs))
	}

	// The minimal prefix is exactly the index of the minHits-th culprit
	// access plus one — bisection should land on it.
	hits, want := 0, -1
	for i, a := range accs {
		if a.CPU == culprit {
			hits++
			if hits == minHits {
				want = i + 1
				break
			}
		}
	}
	if rep.PrefixLen != want {
		t.Errorf("PrefixLen = %d, want minimal %d", rep.PrefixLen, want)
	}

	// Every CPU except the culprit should have been dropped.
	for _, c := range rep.DropCPUs {
		if c == culprit {
			t.Fatalf("shrinker dropped the culprit CPU %d", c)
		}
	}
	_, cut := rep.reduced(accs)
	for _, a := range cut {
		if a.CPU != culprit {
			t.Errorf("minimized trace still contains CPU %d", a.CPU)
			break
		}
	}

	// The reduction must still reproduce.
	if err := Replay(rep, run); Classify(rep.Scenario, err) != Failed {
		t.Errorf("minimized repro no longer fails: %v", err)
	}
}

// TestShrinkBudgetRespected proves the shrinker never spends more re-runs
// than its budget.
func TestShrinkBudgetRespected(t *testing.T) {
	sc := MakeScenario(99, 1)
	accs, err := sc.Trace()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	run := func(sc Scenario, accs []trace.Access) error {
		calls++
		return invariant.Violatef(invariant.RuleMSHRLeak, 0, "", "always fails")
	}
	rep := Shrink(sc, accs, run, 10)
	if calls > 10 {
		t.Errorf("shrinker spent %d runs, budget 10", calls)
	}
	if rep.ShrinkSteps != calls {
		t.Errorf("ShrinkSteps = %d, calls = %d", rep.ShrinkSteps, calls)
	}
}

// TestShrinkFlakyFailure proves a non-deterministic failure is reported as
// such instead of producing a bogus repro.
func TestShrinkFlakyFailure(t *testing.T) {
	sc := MakeScenario(99, 2)
	accs, err := sc.Trace()
	if err != nil {
		t.Fatal(err)
	}
	run := func(Scenario, []trace.Access) error { return nil } // fired once, never again
	rep := Shrink(sc, accs, run, 10)
	if !strings.Contains(rep.Error, "did not reproduce") {
		t.Errorf("flaky failure not flagged: %q", rep.Error)
	}
}

// TestSoakWritesReplayableRepro runs the full harness loop with an
// injected violation: the failing scenario must be shrunk, written to the
// repro dir, readable back, and replayable to the same failure.
func TestSoakWritesReplayableRepro(t *testing.T) {
	dir := t.TempDir()
	const culprit = 0 // CPU 0 exists in every scenario
	run := failAfter(culprit, 1)
	rep, err := Soak(context.Background(), Options{
		Seed: 5, Runs: 3, Workers: 2, ReproDir: dir,
		ShrinkBudget: 100, Run: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 3 {
		t.Fatalf("failures = %d, want 3 (culprit CPU in every scenario)", len(rep.Failures))
	}
	for _, f := range rep.Failures {
		if f.ReproPath == "" {
			t.Fatalf("run %d: no repro written (%s)", f.Scenario.Index, f.WriteErr)
		}
		if filepath.Dir(f.ReproPath) != dir {
			t.Errorf("repro %s outside dir %s", f.ReproPath, dir)
		}
		loaded, err := ReadRepro(f.ReproPath)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded, f.Repro) {
			t.Error("repro did not round-trip through JSON")
		}
		if err := Replay(loaded, run); Classify(loaded.Scenario, err) != Failed {
			t.Errorf("run %d: repro does not replay: %v", f.Scenario.Index, err)
		}
	}
}

// TestSoakCleanGrid proves a violation-free soak reports all-clean and
// writes no artifacts.
func TestSoakCleanGrid(t *testing.T) {
	dir := t.TempDir()
	rep, err := Soak(context.Background(), Options{
		Seed: 11, Runs: 4, Workers: 2, ReproDir: dir,
		Run: func(Scenario, []trace.Access) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean != 4 || len(rep.Failures) != 0 || rep.Expected != 0 {
		t.Fatalf("clean grid: %+v", rep)
	}
	glob, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(glob) != 0 {
		t.Errorf("clean soak wrote artifacts: %v", glob)
	}
}

// TestSoakRealSimulatorSmoke runs a handful of real checker-on simulations
// end to end — the in-process version of the CI soak smoke job.
func TestSoakRealSimulatorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator soak")
	}
	dir := t.TempDir()
	rep, err := Soak(context.Background(), Options{Seed: 1, Runs: 6, ReproDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("%v: %s (repro: %s)", f.Scenario, f.Err, f.ReproPath)
	}
}

// TestRegressionDroppedTokenWrap replays the four seed-1 scenarios that
// first exposed token-ring slot reuse: a dropped response leaks its
// waiter's ring slot, and the monotone allocator eventually wraps onto
// it. The ledger must forfeit such slots (the completion is unreachable)
// rather than report ring overflow.
func TestRegressionDroppedTokenWrap(t *testing.T) {
	t.Parallel()
	for _, idx := range []int{197, 389, 591, 842} {
		sc := MakeScenario(1, idx)
		if sc.DropRate == 0 {
			t.Fatalf("run %d: expected a drop-injecting scenario, got %+v", idx, sc)
		}
		accs, err := sc.Trace()
		if err != nil {
			t.Fatalf("run %d: trace: %v", idx, err)
		}
		if got := Classify(sc, RunScenario(sc, accs)); got == Failed {
			t.Errorf("run %d: classified as failure: %v", idx, RunScenario(sc, accs))
		}
	}
}

// TestRegressionHeteroDeferredTokenWrap replays the seed-1 scenarios that
// exposed live token-ring slot reuse under the hetero scheduler: in
// MSHR-based mode it can defer a bandwidth-hog lane's miss while more
// than a whole ring of later misses is issued. The allocator must step
// over the live slot instead of reissuing it (ring overflow).
func TestRegressionHeteroDeferredTokenWrap(t *testing.T) {
	t.Parallel()
	for _, fe := range []coalescer.Kind{coalescer.KindTwoPhase, coalescer.KindWarp} {
		for _, idx := range []int{123, 501, 809, 885} {
			sc := MakeScenario(1, idx)
			sc.Frontend, sc.Sched = fe, coalescer.SchedHetero
			accs, err := sc.Trace()
			if err != nil {
				t.Fatalf("run %d: trace: %v", idx, err)
			}
			if err := RunScenario(sc, accs); Classify(sc, err) == Failed {
				t.Errorf("%v: classified as failure: %v", sc, err)
			}
		}
	}
}
