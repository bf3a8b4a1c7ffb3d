package main

import (
	"fmt"
	"runtime"
	"time"

	"hmccoal"
)

// simSets are the benchmarks of the two single-run workloads. stream's
// 256 B load+store bursts mostly merge in the sorter/DMC and warp gather;
// irregular's isolated 8 B misses over a footprint far beyond the LLC
// mostly bypass them and load the cache, MSHR and HMC bank layers.
var simSets = map[string][]string{
	"stream":    {"FT", "STREAM"},
	"irregular": {"SSCA2", "CG"},
}

// frontends are replayed for every benchmark of a single-run workload.
var frontends = []hmccoal.FrontendKind{hmccoal.FrontendTwoPhase, hmccoal.FrontendWarp}

const (
	// simOpsPerCPU sizes the single-run traces: 60k–120k accesses on the
	// paper's 12 CPUs.
	simOpsPerCPU = 5000
	// setupReps is how many times a run repeats its set-up before the
	// timed phase, and again after it; setup_s is the median of all.
	// Repeating at both ends keeps one slow stretch of a shared host
	// from setting the median.
	setupReps = 3
)

// repeat runs a workload's set-up setupReps times.
func repeat(setUp func() error) error {
	for rep := 0; rep < setupReps; rep++ {
		if err := setUp(); err != nil {
			return err
		}
	}
	return nil
}

func simParams(traceSeed int64) hmccoal.TraceParams {
	p := hmccoal.DefaultTraceParams()
	p.OpsPerCPU = simOpsPerCPU
	p.Seed = traceSeed
	return p
}

// simCase is one single run: a benchmark's trace under one front-end.
type simCase struct {
	key  string // "<trace seed>/<benchmark>/<front-end>", the expected.json key
	fe   hmccoal.FrontendKind
	cfg  hmccoal.Config
	accs []hmccoal.Access
}

// genCases generates each benchmark's trace and pairs it with every
// front-end, returning the host time spent generating.
func genCases(tr *tracer, parent int, benches []string, traceSeed int64) ([]simCase, time.Duration, error) {
	var cases []simCase
	var gen time.Duration
	for _, b := range benches {
		sp := tr.begin("workloads.GenerateTrace", parent)
		t0 := time.Now()
		accs, err := hmccoal.GenerateTrace(b, simParams(traceSeed))
		gen += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		for _, fe := range frontends {
			cfg := hmccoal.DefaultConfig()
			cfg.Frontend = fe
			cases = append(cases, simCase{
				key:  fmt.Sprintf("%d/%s/%v", traceSeed, b, fe),
				fe:   fe,
				cfg:  cfg,
				accs: accs,
			})
		}
	}
	return cases, gen, nil
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// built is a freshly constructed system with its construction cost.
type built struct {
	sys    *hmccoal.System
	dur    time.Duration
	cpu    time.Duration
	allocs uint64 // counted in the traced phase only
}

func build(tr *tracer, parent int, cfg hmccoal.Config) (built, error) {
	var a0 uint64
	if tr != nil {
		a0 = mallocs()
	}
	sp := tr.begin("sim.NewSystem", parent)
	t0, c0 := time.Now(), cpuSelf()
	sys, err := hmccoal.NewSystem(cfg)
	b := built{sys: sys, dur: time.Since(t0), cpu: cpuSelf() - c0}
	tr.end(sp)
	if tr != nil {
		b.allocs = mallocs() - a0
	}
	return b, err
}

// ran is one simulation from Start to Finish.
type ran struct {
	res    hmccoal.Result
	dur    time.Duration
	cpu    time.Duration
	steps  int
	allocs uint64 // steady-state allocations, traced phase only
}

// simulate replays accs on sys, stepping the staged loop itself so the
// step count is known.
func simulate(tr *tracer, parent int, sys *hmccoal.System, accs []hmccoal.Access) (ran, error) {
	var a0 uint64
	if tr != nil {
		a0 = mallocs()
	}
	sp := tr.begin("sim.Run", parent)
	defer tr.end(sp)
	t0, c0 := time.Now(), cpuSelf()
	r := ran{}
	if err := sys.Start(accs); err != nil {
		return r, err
	}
	for {
		done, err := sys.Step()
		if err != nil {
			return r, err
		}
		r.steps++
		if done {
			break
		}
	}
	res, err := sys.Finish()
	r.dur, r.cpu = time.Since(t0), cpuSelf()-c0
	if err != nil {
		return r, err
	}
	r.res = res
	if tr != nil {
		r.allocs = mallocs() - a0
	}
	return r, nil
}

// simulateFresh runs one case on a new system.
func simulateFresh(c simCase) (hmccoal.Result, error) {
	b, err := build(nil, 0, c.cfg)
	if err != nil {
		return hmccoal.Result{}, err
	}
	r, err := simulate(nil, 0, b.sys, c.accs)
	return r.res, err
}

// simTally accumulates the traced phase's construction and steady-state
// costs.
type simTally struct {
	buildMs     []float64
	buildAllocs map[hmccoal.FrontendKind][]float64
	runAllocs   map[hmccoal.FrontendKind][]float64
	steps       int
	stepSecs    float64
}

func newSimTally() *simTally {
	return &simTally{
		buildAllocs: map[hmccoal.FrontendKind][]float64{},
		runAllocs:   map[hmccoal.FrontendKind][]float64{},
	}
}

func (t *simTally) add(fe hmccoal.FrontendKind, b built, r ran) {
	t.buildMs = append(t.buildMs, ms(b.cpu))
	t.buildAllocs[fe] = append(t.buildAllocs[fe], float64(b.allocs))
	t.runAllocs[fe] = append(t.runAllocs[fe], float64(r.allocs))
	t.steps += r.steps
	t.stepSecs += r.cpu.Seconds()
}

// fill reports the tally; stepsPerUnit is the step count of one unit of
// work (deterministic, so any unit's count will do).
func (t *simTally) fill(lay layers, stepsPerUnit int) {
	lay["sim.build_ms"] = median(t.buildMs)
	lay["sim.build_allocs_2p"] = median(t.buildAllocs[hmccoal.FrontendTwoPhase])
	lay["sim.build_allocs_warp"] = median(t.buildAllocs[hmccoal.FrontendWarp])
	lay["sim.steady_allocs_2p"] = median(t.runAllocs[hmccoal.FrontendTwoPhase])
	lay["sim.steady_allocs_warp"] = median(t.runAllocs[hmccoal.FrontendWarp])
	lay["sim.steps"] = float64(stepsPerUnit)
	if t.steps > 0 {
		lay["sim.ns_per_step"] = t.stepSecs * 1e9 / float64(t.steps)
	}
}

// fillCounts reports the simulated per-layer statistics of a set of runs.
// They are deterministic for a seed, so they are checked, not timed.
func fillCounts(lay layers, rs []hmccoal.Result) {
	var llcAcc, llcMiss, l1Acc, l1Hit, llcReq, hmcReq uint64
	var merges, batches, bypassed, merged, stalls, requests, conflicts, payload, moved uint64
	for _, r := range rs {
		llcAcc += r.LLC.Accesses
		llcMiss += r.LLC.Misses
		l1Acc += r.L1.Accesses
		l1Hit += r.L1.Hits
		llcReq += r.LLCMisses
		hmcReq += r.HMCRequests
		merges += r.Coalescer.FirstPhaseMerges
		batches += r.Coalescer.Batches
		bypassed += r.Coalescer.Bypassed
		merged += r.MSHR.MergedTargets
		stalls += r.MSHR.FullStalls
		requests += r.HMC.Requests
		conflicts += r.HMC.BankConflicts
		payload += r.Coalescer.PayloadBytes
		moved += r.HMC.TransferredBytes
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	lay["cache.llc_miss_ratio"] = ratio(llcMiss, llcAcc)
	lay["cache.l1_hit_ratio"] = ratio(l1Hit, l1Acc)
	lay["coalescer.coal_eff"] = 1 - ratio(hmcReq, llcReq)
	lay["coalescer.first_phase_merges"] = float64(merges)
	lay["coalescer.batches"] = float64(batches)
	lay["coalescer.bypassed"] = float64(bypassed)
	lay["mshr.merged"] = float64(merged)
	lay["mshr.full_stalls"] = float64(stalls)
	lay["hmc.requests"] = float64(requests)
	lay["hmc.bank_conflicts"] = float64(conflicts)
	lay["hmc.bw_eff"] = ratio(payload, moved)
}

// runSim is the stream and irregular workloads: serial single runs of the
// workload's benchmarks under both front-ends, repeated in passes until
// the time is up. Every run starts on a freshly built system, so caches
// start empty. Set-up is trace generation plus the first pass's
// NewSystem calls; an operation is one run's Start→Finish; a unit of work
// is one pass including its NewSystem calls. Each is timed in CPU time,
// operations also in wall time.
func runSim(e *env) (*measure, layers, error) {
	benches := simSets[e.workload]
	m := &measure{}
	tr := e.tr
	var (
		cases []simCase
		first []built
		genS  []float64
	)
	setUp := func() error {
		sp := tr.begin("setup", 0)
		defer tr.end(sp)
		c0 := cpuSelf()
		cs, gen, err := genCases(tr, sp, benches, e.traceSeed)
		if err != nil {
			return err
		}
		bs := make([]built, len(cs))
		for i, c := range cs {
			if bs[i], err = build(tr, sp, c.cfg); err != nil {
				return err
			}
		}
		m.setup = append(m.setup, (cpuSelf() - c0).Seconds())
		genS = append(genS, gen.Seconds())
		cases, first = cs, bs
		return nil
	}
	if err := repeat(setUp); err != nil {
		return nil, nil, err
	}

	var prof *profiler
	if tr != nil {
		var err error
		if prof, err = startProfile(e.workdir); err != nil {
			return nil, nil, err
		}
	}
	tally := newSimTally()
	var last []hmccoal.Result
	stepsPerPass := 0
	ticks := readTicks()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < e.seconds; pass++ {
		window := min(opWindows-1, int(opWindows*time.Since(start).Seconds()/e.seconds))
		sp := tr.begin("pass", 0)
		resetPeakRSS(0)
		var wall, cpu, simulated time.Duration
		var accesses uint64
		results := make([]hmccoal.Result, len(cases))
		ok := make([]bool, len(cases))
		stepsPerPass = 0
		for i, c := range cases {
			var b built
			if pass == 0 {
				b = first[i]
			} else {
				var err error
				if b, err = build(tr, sp, c.cfg); err != nil {
					return nil, nil, err
				}
			}
			r, err := simulate(tr, sp, b.sys, c.accs)
			m.attempted++
			wall += b.dur + r.dur
			cpu += b.cpu + r.cpu
			if err != nil {
				m.fail("%s: %v", c.key, err)
				continue
			}
			m.ops = append(m.ops, opSample{ms: ms(r.dur), kind: i, window: window})
			accesses += uint64(len(c.accs))
			simulated += r.cpu
			tally.add(c.fe, b, r)
			stepsPerPass += r.steps
			results[i], ok[i] = r.res, true
		}
		tr.end(sp)
		m.units = append(m.units, cpu.Seconds())
		m.walls = append(m.walls, wall.Seconds())
		m.peaks = append(m.peaks, peakRSSMB(0))
		m.accesses += accesses
		if simulated > 0 {
			m.rates = append(m.rates, float64(accesses)/simulated.Seconds()/1e6)
		}
		first = nil
		for i, c := range cases {
			if ok[i] && digest(results[i]) != e.expect.Sim[c.key] {
				m.fail("%s: Result digest %s, want %q", c.key, digest(results[i]), e.expect.Sim[c.key])
			}
		}
		last = results
	}
	m.steal = stealPct(ticks, readTicks())
	lay := layers{}
	if tr != nil {
		if err := prof.stop(m.accesses, len(m.units), lay); err != nil {
			return nil, nil, err
		}
	}
	if err := repeat(setUp); err != nil {
		return nil, nil, err
	}
	if tr == nil {
		return m, nil, nil
	}
	lay["workloads.gen_s"] = median(genS)
	accs := 0
	for _, c := range cases {
		accs += len(c.accs)
	}
	lay["workloads.accesses"] = float64(accs)
	tally.fill(lay, stepsPerPass)
	fillCounts(lay, last)
	return m, lay, nil
}
