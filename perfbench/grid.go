package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"hmccoal"
)

const (
	// gridOpsPerCPU and gridFaultBench are hmccoal's CLI defaults (-ops,
	// -bench), so the grid is `hmccoal -fig all` as users run it.
	gridOpsPerCPU  = 4000
	gridFaultBench = "HPCG"
)

func gridParams(traceSeed int64) hmccoal.TraceParams {
	return hmccoal.TraceParams{CPUs: 12, OpsPerCPU: gridOpsPerCPU, Seed: traceSeed}
}

// gridRun is one regeneration of the figure grid.
type gridRun struct {
	text string // the figures, as `hmccoal -fig all` prints them
	runs []hmccoal.BenchmarkRun
	wall time.Duration
	cpu  time.Duration // of the whole process, every worker included
	// sweeps holds the three sweeps' timings in grid order: RunAll,
	// Figure 14, fault sweep.
	sweeps [3]sweepTiming
}

// sweepTiming is one sweep call observed through its Progress callback.
type sweepTiming struct {
	dur  time.Duration
	done []time.Duration // each job's completion, since the sweep started
	tail time.Duration   // time after fewer jobs than workers remained
}

// timedSweep runs one sweep with SweepOptions at the CLI's defaults
// (-workers 0 = every core, -batch 0) and records when each job completes.
func timedSweep(tr *tracer, parent int, name string, call func(hmccoal.SweepOptions) error) (sweepTiming, error) {
	var (
		mu sync.Mutex
		st sweepTiming
	)
	workers := runtime.GOMAXPROCS(0)
	var tailStart time.Duration = -1
	sp := tr.begin("sweep."+name, parent)
	t0 := time.Now()
	err := call(hmccoal.SweepOptions{Progress: func(done, total int) {
		now := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		st.done = append(st.done, now)
		if tailStart < 0 && total-done < workers {
			tailStart = now
		}
	}})
	end := time.Since(t0)
	tr.end(sp)
	mu.Lock()
	defer mu.Unlock()
	st.dur = end
	if tailStart >= 0 {
		st.tail = end - tailStart
	}
	return st, err
}

// figureGrid regenerates `hmccoal -fig all` through the public sweep
// drivers; its text matches that command's stdout.
func figureGrid(p hmccoal.TraceParams, tr *tracer) (gridRun, error) {
	var g gridRun
	var b strings.Builder
	section := func(title string) { fmt.Fprintf(&b, "\n%s\n%s\n", title, strings.Repeat("=", len(title))) }
	ctx := context.Background()
	sp := tr.begin("grid", 0)
	defer tr.end(sp)
	t0, c0 := time.Now(), cpuSelf()

	section("Figure 1 — bandwidth efficiency of HMC request packets")
	b.WriteString(hmccoal.Figure1Table())
	section("Figure 2 — control overhead of different requested data size")
	b.WriteString(hmccoal.Figure2Table())

	var err error
	g.sweeps[0], err = timedSweep(tr, sp, "RunAll", func(opt hmccoal.SweepOptions) error {
		g.runs, err = hmccoal.RunAllContext(ctx, p, opt)
		return err
	})
	if err != nil {
		return g, err
	}
	section("Figure 8 — coalescing efficiency")
	b.WriteString(hmccoal.Figure8Table(g.runs))
	section("Figure 9 — bandwidth efficiency of coalesced and raw requests")
	b.WriteString(hmccoal.Figure9Table(g.runs))
	section(fmt.Sprintf("Figure 10 — coalesced HMC request distribution of %s", gridFaultBench))
	for _, r := range g.runs {
		if r.Name == gridFaultBench {
			b.WriteString(hmccoal.Figure10Table(r))
		}
	}
	section("Figure 11 — bandwidth saving")
	b.WriteString(hmccoal.Figure11Table(g.runs))
	section("Figure 12 — average latency of coalescing in the DMC unit")
	b.WriteString(hmccoal.Figure12Table(g.runs))
	section("Figure 13 — average time cost of filling up the CRQ")
	b.WriteString(hmccoal.Figure13Table(g.runs))

	var fig14 string
	g.sweeps[1], err = timedSweep(tr, sp, "Figure14", func(opt hmccoal.SweepOptions) error {
		fig14, err = hmccoal.Figure14TableContext(ctx, p, nil, opt)
		return err
	})
	if err != nil {
		return g, err
	}
	section("Figure 14 — average coalescer latency vs timeout T")
	b.WriteString(fig14)
	section("Figure 15 — performance improvement with memory coalescer")
	b.WriteString(hmccoal.Figure15Table(g.runs))

	var rows []hmccoal.FaultSweepRow
	g.sweeps[2], err = timedSweep(tr, sp, "FaultSweep", func(opt hmccoal.SweepOptions) error {
		rows, err = hmccoal.FaultSweepContext(ctx, gridFaultBench, p, uint64(p.Seed), nil, opt)
		return err
	})
	if err != nil {
		return g, err
	}
	section(fmt.Sprintf("Fault sweep — efficiency and speedup vs link error rate (%s)", gridFaultBench))
	b.WriteString(hmccoal.FaultSweepTable(rows))

	g.wall, g.cpu = time.Since(t0), cpuSelf()-c0
	g.text = b.String()
	return g, nil
}

// Simulations per benchmark trace in one grid: three architectures in
// RunAll, four timeouts in Figure 14, and 5 error rates × 3 architectures
// of the fault sweep on one benchmark.
const (
	gridRunAllSims = 3
	gridFig14Sims  = 4
	gridFaultSims  = 15
)

// accesses is the number of trace accesses the grid's simulations replay
// (the payload analyses read the traces too but simulate nothing).
func (g gridRun) accesses() uint64 {
	var n uint64
	for _, r := range g.runs {
		per := r.TwoPhase.L1.Accesses
		n += (gridRunAllSims + gridFig14Sims) * per
		if r.Name == gridFaultBench {
			n += gridFaultSims * per
		}
	}
	return n
}

// runGrid is the grid workload: the whole figure grid, repeated until the
// time is up. Set-up is what the grid's first job waits for before it can
// simulate: its benchmark's trace and a system at the grid's
// configuration; a unit of work is one grid. Both are timed in CPU time.
// An operation is one simulation job's completion offset from the start
// of its sweep, in wall time: every job of a sweep is queued at its start.
func runGrid(e *env) (*measure, layers, error) {
	m := &measure{}
	tr := e.tr
	p := gridParams(e.traceSeed)
	setUp := func() error {
		sp := tr.begin("setup", 0)
		defer tr.end(sp)
		c0 := cpuSelf()
		g := tr.begin("workloads.GenerateTrace", sp)
		_, err := hmccoal.GenerateTrace(hmccoal.Benchmarks()[0], p)
		tr.end(g)
		if err != nil {
			return err
		}
		if _, err := build(tr, sp, hmccoal.DefaultConfig()); err != nil {
			return err
		}
		m.setup = append(m.setup, (cpuSelf() - c0).Seconds())
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
	want := e.expect.Grid[fmt.Sprint(e.traceSeed)]
	var grids []gridRun
	ticks := readTicks()
	start := time.Now()
	for m.attempted == 0 || time.Since(start).Seconds() < e.seconds {
		resetPeakRSS(0)
		g, err := figureGrid(p, tr)
		m.attempted++
		if err != nil {
			m.fail("grid: %v", err)
			continue
		}
		if got := digest(g.text); got != want {
			m.fail("grid: figure digest %s, want %q", got, want)
		}
		m.units = append(m.units, g.cpu.Seconds())
		m.walls = append(m.walls, g.wall.Seconds())
		m.peaks = append(m.peaks, peakRSSMB(0))
		m.accesses += g.accesses()
		m.rates = append(m.rates, float64(g.accesses())/g.cpu.Seconds()/1e6)
		for _, s := range g.sweeps {
			for _, d := range s.done {
				m.ops = append(m.ops, opSample{ms: ms(d), window: len(grids)})
			}
		}
		grids = append(grids, g)
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
	if len(grids) == 0 {
		return nil, nil, errors.New("no figure grid completed")
	}
	if tr == nil {
		return m, nil, nil
	}
	var runall, fig14, fault, tail []float64
	for _, g := range grids {
		runall = append(runall, g.sweeps[0].dur.Seconds())
		fig14 = append(fig14, g.sweeps[1].dur.Seconds())
		fault = append(fault, g.sweeps[2].dur.Seconds())
		var t time.Duration
		for _, s := range g.sweeps {
			t += s.tail
		}
		tail = append(tail, t.Seconds())
	}
	last := grids[len(grids)-1]
	lay["sweep.runall_s"] = median(runall)
	lay["sweep.fig14_s"] = median(fig14)
	lay["sweep.fault_s"] = median(fault)
	lay["sweep.tail_s"] = median(tail)
	lay["sweep.jobs"] = float64(len(last.sweeps[0].done) + len(last.sweeps[1].done) + len(last.sweeps[2].done))
	lay["workloads.accesses"] = float64(last.accesses())

	// Layer costs of the grid's own inputs, outside the profiled phase:
	// every trace the grid generates (RunAll and Figure 14 each generate
	// all twelve, the fault sweep one), and a direct replay of the twelve
	// two-phase RunAll jobs for the sim layer's construction and
	// steady-state figures.
	tally := newSimTally()
	var gen time.Duration
	var two []hmccoal.Result
	steps := 0
	for _, run := range last.runs {
		t0 := time.Now()
		accs, err := hmccoal.GenerateTrace(run.Name, p)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		gen += 2 * d
		if run.Name == gridFaultBench {
			gen += d
		}
		cfg := hmccoal.DefaultConfig()
		cfg.Mode = hmccoal.ModeTwoPhase
		b, err := build(tr, 0, cfg)
		if err != nil {
			return nil, nil, err
		}
		r, err := simulate(tr, 0, b.sys, accs)
		m.attempted++
		if err != nil {
			m.fail("grid replay %s: %v", run.Name, err)
			continue
		}
		if digest(r.res) != digest(run.TwoPhase) {
			m.fail("grid replay %s: Result differs from the sweep's", run.Name)
		}
		tally.add(cfg.Frontend, b, r)
		steps += r.steps
		two = append(two, r.res)
	}
	lay["workloads.gen_s"] = gen.Seconds()
	tally.fill(lay, steps)
	fillCounts(lay, two)
	return m, lay, nil
}
