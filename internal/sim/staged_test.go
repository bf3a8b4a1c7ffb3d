package sim

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/fault"
	"hmccoal/internal/hmc"
	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

// stagedScenario is one row of the equivalence table: a benchmark on a
// configuration, run monolithically (Run) and via the staged loop,
// expecting byte-identical results.
type stagedScenario struct {
	name    string
	bench   string
	ops     int
	mode    Mode
	backend hmc.Kind
	fe      coalescer.Kind
	sched   coalescer.Sched
	ber     float64 // >0 enables deterministic link fault injection
	checks  bool
}

func stagedScenarios() []stagedScenario {
	return []stagedScenario{
		{name: "hpcg/two-phase", bench: "HPCG", ops: 600, mode: TwoPhase},
		{name: "ft/two-phase", bench: "FT", ops: 600, mode: TwoPhase},
		{name: "hpcg/baseline", bench: "HPCG", ops: 600, mode: Baseline},
		{name: "ft/dmc-only", bench: "FT", ops: 600, mode: DMCOnly},
		{name: "hpcg/ddr", bench: "HPCG", ops: 400, mode: TwoPhase, backend: hmc.KindDDR},
		{name: "ft/ideal", bench: "FT", ops: 400, mode: TwoPhase, backend: hmc.KindIdeal},
		{name: "hpcg/faulty", bench: "HPCG", ops: 600, mode: TwoPhase, ber: 1e-5},
		{name: "ft/faulty-checked", bench: "FT", ops: 600, mode: TwoPhase, ber: 1e-5, checks: true},
		{name: "hpcg/checked", bench: "HPCG", ops: 400, mode: TwoPhase, checks: true},
		// The front-end axis: the warp coalescing unit and the hetero issue
		// policy across every backend and under link faults.
		{name: "hpcg/warp", bench: "HPCG", ops: 600, mode: TwoPhase, fe: coalescer.KindWarp},
		{name: "ft/warp-ddr", bench: "FT", ops: 400, mode: TwoPhase, fe: coalescer.KindWarp, backend: hmc.KindDDR},
		{name: "hpcg/warp-ideal", bench: "HPCG", ops: 400, mode: TwoPhase, fe: coalescer.KindWarp, backend: hmc.KindIdeal},
		{name: "ft/warp-faulty", bench: "FT", ops: 600, mode: TwoPhase, fe: coalescer.KindWarp, ber: 1e-5},
		{name: "hpcg/warp-hetero", bench: "HPCG", ops: 600, mode: TwoPhase, fe: coalescer.KindWarp, sched: coalescer.SchedHetero},
		{name: "ft/hetero", bench: "FT", ops: 600, mode: TwoPhase, sched: coalescer.SchedHetero},
		{name: "ft/warp-hetero-faulty-checked", bench: "FT", ops: 600, mode: TwoPhase,
			fe: coalescer.KindWarp, sched: coalescer.SchedHetero, ber: 1e-5, checks: true},
		// Saturated MSHRs: the CRQ head blocks on a packed file and must
		// retry its insert.
		{name: "ssca2/two-phase-blocked", bench: "SSCA2", ops: 600, mode: TwoPhase},
		{name: "ssca2/baseline-blocked", bench: "SSCA2", ops: 600, mode: Baseline},
		{name: "cg/warp-hetero-blocked", bench: "CG", ops: 600, mode: TwoPhase,
			fe: coalescer.KindWarp, sched: coalescer.SchedHetero},
	}
}

func (sc stagedScenario) config() Config {
	cfg := DefaultConfig()
	cfg.Mode = sc.mode
	cfg.Backend = sc.backend
	cfg.Frontend = sc.fe
	cfg.Sched = sc.sched
	cfg.Checks = sc.checks
	if sc.ber > 0 {
		cfg.HMC.Fault = fault.Config{Seed: 7, BER: sc.ber}
	}
	return cfg
}

func (sc stagedScenario) trace(t *testing.T) []trace.Access {
	t.Helper()
	g, ok := workloads.ByName(sc.bench)
	if !ok {
		t.Fatalf("no workload %s", sc.bench)
	}
	st, err := g.Generate(workloads.Params{CPUs: 12, OpsPerCPU: sc.ops, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return st.Flatten()
}

func mustSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func diffResults(t *testing.T, want, got Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: Result diverged:\nwant %+v\ngot  %+v", label, want, got)
	}
	if want.Summary() != got.Summary() {
		t.Errorf("%s: Summary diverged:\n--- want\n%s--- got\n%s", label, want.Summary(), got.Summary())
	}
}

// TestStagedLoopMatchesRun drives the staged Start/Step/Finish API manually
// and requires the exact Result the one-shot Run produces, per benchmark
// and mode — the safety net for the monolithic→staged decomposition.
func TestStagedLoopMatchesRun(t *testing.T) {
	for _, sc := range stagedScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			accs := sc.trace(t)
			want, err := mustSystem(t, sc.config()).Run(accs)
			if err != nil {
				t.Fatal(err)
			}
			s := mustSystem(t, sc.config())
			if err := s.Start(accs); err != nil {
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
			got, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, want, got, sc.name)
		})
	}
}

// TestStepFeedsPrivateRun holds every Step that feeds more than one access
// to the step contract (stepContract) on each staged scenario, and on a
// trace whose run of private hits outlasts the sorter timeout a re-touch
// inside the run arms: that run must end at the timeout, not at the fill
// the run began under.
func TestStepFeedsPrivateRun(t *testing.T) {
	for _, sc := range stagedScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			stepContract(t, sc.config(), sc.trace(t))
		})
	}
	t.Run("retouch-timeout", func(t *testing.T) {
		// Line 0 is filled long before the run, which starts with a load
		// of it. Line 1 is still in flight when its second touch, next in
		// the run and past the same-core window, regenerates a miss into
		// an empty sorter (the bypass is off), due to time out 24 cycles
		// later. The loads of line 0 after it are private hits one cycle
		// apart, for longer than the fill takes, with a fence among them.
		accs := []trace.Access{
			{Tick: 0, Kind: trace.Load, Addr: 0, Size: 8},
			{Tick: 2000, Kind: trace.Load, Addr: 64, Size: 8},
			{Tick: 2059, Kind: trace.Load, Addr: 0, Size: 8},
			{Tick: 2060, Kind: trace.Load, Addr: 72, Size: 8},
		}
		for tick := uint64(2061); tick < 2561; tick++ {
			a := trace.Access{Tick: tick, Kind: trace.Load, Addr: 8, Size: 8}
			if tick == 2400 {
				a = trace.Access{Tick: tick, Kind: trace.FenceOp}
			}
			accs = append(accs, a)
		}
		cfg := DefaultConfig()
		cfg.Coalescer.Bypass = false
		stepContract(t, cfg, accs)
	})
}

// stepContract runs accs on a System built from cfg and holds every Step
// that feeds more than one access to the step contract. A twin System,
// built and started alike, takes each such Step one access at a time
// through the stages (feedOne), checking before each that the access is
// no fence, that its core is within its MLP budget, that its tick is
// before the coalescer's next event as it stands then, and, after the
// first, that it hits in the private levels; every other Step the twin
// takes as a Step. The two must stay at the same trace positions and tick
// and end in the same Result, Tick must never run backwards, and some Step
// must feed a run.
func stepContract(t *testing.T, cfg Config, accs []trace.Access) {
	t.Helper()
	a, b := mustSystem(t, cfg), mustSystem(t, cfg)
	if err := errors.Join(a.Start(accs), b.Start(accs)); err != nil {
		t.Fatal(err)
	}
	runs, prev := 0, uint64(0)
	for done := false; !done; {
		before := slices.Clone(a.ts.pos)
		var err error
		if done, err = a.Step(); err != nil {
			t.Fatal(err)
		}
		if a.Tick() < prev {
			t.Fatalf("Tick ran backwards: %d after %d", a.Tick(), prev)
		}
		prev = a.Tick()
		fed := 0
		for c, p := range before {
			fed += int(a.ts.pos[c] - p)
		}
		if fed < 2 {
			if _, err := b.Step(); err != nil {
				t.Fatal(err)
			}
		} else {
			runs++
			for i := 0; i < fed; i++ {
				feedOne(t, b, i > 0)
			}
		}
		if !slices.Equal(a.ts.pos, b.ts.pos) || a.Tick() != b.Tick() {
			t.Fatalf("step-by-step twin at positions %v tick %d, Step at %v tick %d",
				b.ts.pos, b.Tick(), a.ts.pos, a.Tick())
		}
	}
	want, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, want, got, "Step against the twin")
	if runs == 0 {
		t.Error("no Step fed more than one access")
	}
}

// feedOne feeds s's root cursor access as a Step of its own would, after
// checking that it may: no fence, within its core's MLP budget, before the
// coalescer's next event and, if private is set, a private-level hit.
func feedOne(t *testing.T, s *System, private bool) {
	t.Helper()
	ts := &s.ts
	cur := ts.cursors[0]
	p := ts.streamOff[cur.cpu] + ts.pos[cur.cpu]
	acc := s.streamAt(cur.cpu, ts.pos[cur.cpu])
	switch next, ok := s.coal.NextEvent(); {
	case acc.Kind == trace.FenceOp:
		t.Fatalf("CPU %d access %d in a run is a fence", cur.cpu, ts.pos[cur.cpu])
	case s.outstanding[cur.cpu] >= s.cfg.MaxOutstanding:
		t.Fatalf("CPU %d access %d in a run has a full MLP budget", cur.cpu, ts.pos[cur.cpu])
	case ok && next <= cur.tick:
		t.Fatalf("CPU %d access %d in a run at tick %d, memory's next event at %d", cur.cpu, ts.pos[cur.cpu], cur.tick, next)
	case private && !ts.filter.Private(int(p)):
		t.Fatalf("CPU %d access %d in a run reaches the LLC", cur.cpu, ts.pos[cur.cpu])
	}
	s.stageTraceFeed(acc, p, cur.tick)
	ts.last = max(ts.last, cur.tick)
	s.advanceCursor(cur.cpu, acc, cur.tick)
}

// stepUntil steps the system until its high-water tick reaches at least
// tick (or the trace fully issues). Reports whether the loop is done.
func stepUntil(t *testing.T, s *System, tick uint64) bool {
	t.Helper()
	for s.Tick() < tick {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return true
		}
	}
	return false
}

func finishStepping(t *testing.T, s *System) Result {
	t.Helper()
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResetAfterAbandonedRun is the reuse contract a job daemon relies on:
// a System that ran part of another trace (under the other front-end) and
// was abandoned mid-run must, after Reset, run a trace exactly as a fresh
// System does.
func TestResetAfterAbandonedRun(t *testing.T) {
	other := stagedScenario{bench: "SSCA2", ops: 600}.trace(t)
	accs := stagedScenario{bench: "FT", ops: 600}.trace(t)
	for _, fe := range []coalescer.Kind{coalescer.KindTwoPhase, coalescer.KindWarp} {
		for _, mode := range []Mode{Baseline, DMCOnly, TwoPhase} {
			cfg := DefaultConfig()
			cfg.Mode, cfg.Frontend = mode, fe
			otherCfg := DefaultConfig()
			if fe == coalescer.KindTwoPhase {
				otherCfg.Frontend = coalescer.KindWarp
			}
			t.Run(fmt.Sprintf("%v/%v", fe, mode), func(t *testing.T) {
				abandoned := func() *System {
					s := mustSystem(t, otherCfg)
					if err := s.Start(other); err != nil {
						t.Fatal(err)
					}
					if stepUntil(t, s, 10_000) {
						t.Fatal("other trace drained before tick 10k")
					}
					if err := s.Reset(cfg); err != nil {
						t.Fatal(err)
					}
					return s
				}

				want, err := mustSystem(t, cfg).Run(accs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := abandoned().Run(accs)
				if err != nil {
					t.Fatal(err)
				}
				diffResults(t, want, got, "reset/run")
			})
		}
	}
}

// TestStartAndFinishOnce pins that a run starts once and finishes once.
func TestStartAndFinishOnce(t *testing.T) {
	s := mustSystem(t, DefaultConfig())
	accs := stagedScenario{bench: "HPCG", ops: 200}.trace(t)
	if err := s.Start(accs); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(accs); err == nil {
		t.Error("second Start accepted")
	}
	finishStepping(t, s)
	if _, err := s.Finish(); err == nil {
		t.Error("second Finish accepted")
	}
}

func TestFinishBeforeDrainRejected(t *testing.T) {
	s := mustSystem(t, DefaultConfig())
	accs := stagedScenario{bench: "FT", ops: 300}.trace(t)
	if err := s.Start(accs); err != nil {
		t.Fatal(err)
	}
	if stepUntil(t, s, 1000) {
		t.Fatal("trace drained too early")
	}
	if _, err := s.Finish(); err == nil {
		t.Error("Finish with runnable CPUs accepted")
	}
}
