package hmccoal

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hmccoal/internal/metrics"
	"hmccoal/internal/sweep"
	"hmccoal/internal/workloads"
)

// SweepOptions tunes the parallel evaluation sweeps (Preset.Run and the
// drivers built on it).
type SweepOptions struct {
	// Workers is the simulation worker-pool size. 0 uses every core
	// (GOMAXPROCS); 1 reproduces the old strictly serial pipeline. The
	// results are byte-identical at any worker count — only wall-clock
	// changes. Jobs reuse finished Systems (System.Reset), so a sweep
	// builds about one System per worker per benchmark, not one per job.
	Workers int
	// Progress, when non-nil, is called after each simulation job
	// completes with the number of finished jobs and the grid size.
	// Calls are serialized across workers.
	Progress func(done, total int)
	// Checks enables the runtime invariant checker in every simulation of
	// the sweep. Results are identical either way (see sim.Config.Checks);
	// a violated conservation law surfaces as that job's error instead of
	// silent corruption.
	Checks bool
	// Checkpoint, when non-empty, persists each completed job to a JSONL
	// file so an interrupted sweep resumes without recomputing (see
	// sweep.Options.Checkpoint). Every line is tagged with a fingerprint
	// of the grid's SweepSpec — everything that can change a result, but
	// not Checks — so a checkpoint only restores into a sweep with the
	// same inputs; checked, unchecked, local and distributed runs of one
	// grid resume from each other's checkpoints.
	Checkpoint string
	// Variant selects the machine every simulation of the sweep runs on
	// (see Config.Variant). A preset that sweeps a field of it ignores
	// that field.
	Variant
	// Dispatch, when non-nil, runs every job instead of an in-process
	// SweepRunner — the distributed sweep path (see Dispatcher and
	// internal/dsweep). Workers then bounds in-flight jobs rather than
	// local simulation goroutines; checkpointing, progress and result
	// assembly are unchanged, and the output stays byte-identical to the
	// in-process run.
	Dispatch Dispatcher
}

// engine is the sweep-engine configuration for one grid. With a
// checkpoint, its tag is the spec's fingerprint, so the checkpoint only
// resumes into a sweep with identical inputs.
func (o SweepOptions) engine(spec SweepSpec) (sweep.Options, error) {
	opt := sweep.Options{
		Workers:    o.Workers,
		Progress:   o.Progress,
		Checkpoint: o.Checkpoint,
		Remote:     o.Dispatch != nil,
	}
	var err error
	if o.Checkpoint != "" {
		opt.Tag, err = spec.fingerprint()
	}
	return opt, err
}

// mapSpec fans a sweep grid across the engine: each grid index goes to
// opt.Dispatch — or, when that is nil, to a SweepRunner built for this
// sweep — as a (spec, index) job and comes back as a JSON cell, returned
// in index order on the calling process. Local and
// distributed runs share this one path, so the checkpoint format, the
// progress cadence and the final output are identical across them.
func mapSpec(ctx context.Context, spec SweepSpec, opt SweepOptions) ([]SweepCell, error) {
	g, err := spec.compile()
	if err != nil {
		return nil, err
	}
	eng, err := opt.engine(spec)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("hmccoal: encode sweep spec: %w", err)
	}
	d := opt.Dispatch
	if d == nil {
		d = NewSweepRunner()
	}
	if r, ok := d.(*SweepRunner); ok {
		// Every job of this sweep runs on r, so r keeps each benchmark's
		// trace until that benchmark's last job has run.
		defer r.cache.whole(string(raw), g, spec.Params)()
	}
	return sweep.Map(ctx, g.n(), eng, func(ctx context.Context, i int) (SweepCell, error) {
		var cell SweepCell
		out, err := d.RunJob(ctx, raw, i)
		if err != nil {
			return cell, err
		}
		if err := json.Unmarshal(out, &cell); err != nil {
			return cell, fmt.Errorf("hmccoal: decode cell %d: %w", i, err)
		}
		return cell, nil
	})
}

// Preset is a named sweep grid of the evaluation: its benchmarks, its
// axes with default values, and how its finished cells render. The preset
// table is the one definition of every grid; hmccoal -fig, hmcservd sweep
// jobs and the sweep drivers all run through it.
type Preset struct {
	name string
	// benches lists the grid's benchmarks; nil means one benchmark the
	// caller names.
	benches func() []string
	axes    []Axis
	// render maps the grid's cells, in index order, to its named results.
	render func(s SweepSpec, cells []SweepCell) map[string]any
}

// modes is a mode axis over the three architectures of Figure 8.
var modes = Axis{"mode", []string{"MSHR-based", "DMC-only", "two-phase"}}

// strideAxes is the stride ladder's front-end × scheduler grid in display
// order: both issue policies under the paper's two-phase coalescer, then
// under the GPU-style warp coalescing unit.
var strideAxes = []Axis{{"frontend", []string{"two-phase", "warp"}}, {"sched", []string{"frfcfs", "hetero"}}}

// presets is the preset table.
var presets = []*Preset{
	// The (benchmark × {3 architectures, payload analysis}) grid behind
	// Figures 8–13 and 15.
	{name: "runall", benches: Benchmarks,
		axes: []Axis{{"mode", append(slices.Clip(modes.Values), payloadCell)}},
		render: func(s SweepSpec, c []SweepCell) map[string]any {
			runs := make([]BenchmarkRun, len(s.Benches))
			for b, name := range s.Benches {
				r := c[4*b:]
				runs[b] = BenchmarkRun{Name: name, Baseline: r[0].Res, DMCOnly: r[1].Res, TwoPhase: r[2].Res, Payload: r[3].Pay}
			}
			return map[string]any{"runs": runs, "figure8": Figure8Table(runs), "figure15": Figure15Table(runs)}
		}},
	// The (benchmark × timeout) grid of Figure 14: average coalescer
	// latency per timeout.
	{name: "fig14", benches: Benchmarks, axes: []Axis{timeouts},
		render: func(s SweepSpec, c []SweepCell) map[string]any {
			header := []string{"benchmark"}
			for _, v := range s.Axes[0].Values {
				header = append(header, "T="+v)
			}
			rows := [][]string{header}
			n, lat := len(s.Axes[0].Values), cellValues(c, latencyNs)
			for b, name := range s.Benches {
				row := []string{name}
				for _, ns := range lat[b*n : (b+1)*n] {
					row = append(row, metrics.Ns(ns))
				}
				rows = append(rows, row)
			}
			return map[string]any{"figure14": rows2(rows)}
		}},
	// One benchmark's timeout sweep.
	{name: "timeout", axes: []Axis{timeouts},
		render: func(_ SweepSpec, c []SweepCell) map[string]any {
			return map[string]any{"latencies_ns": cellValues(c, latencyNs)}
		}},
	// One benchmark's MSHR-entries sweep: coalescing efficiency per file
	// size, the CRQ resized in lockstep as §3.2.2 requires.
	{name: "mshr", axes: []Axis{{"mshr", []string{"8", "16", "32", "64"}}},
		render: func(_ SweepSpec, c []SweepCell) map[string]any {
			return map[string]any{"efficiency": cellValues(c, Result.CoalescingEfficiency)}
		}},
	// The Figure 15 runtime-improvement study on the spec's backend: the
	// conventional MHA against the full coalescer, with a backend column
	// so ddr/ideal runs compare against the HMC rows side by side.
	{name: "speedup", benches: Benchmarks, axes: []Axis{{"mode", []string{"MSHR-based", "two-phase"}}},
		render: func(s SweepSpec, c []SweepCell) map[string]any {
			rows := [][]string{{"benchmark", "backend", "MSHR-based", "two-phase", "improvement"}}
			var sum float64
			for b, name := range s.Benches {
				r := BenchmarkRun{Baseline: c[2*b].Res, TwoPhase: c[2*b+1].Res}
				rows = append(rows, []string{
					name,
					s.Backend.String(),
					fmt.Sprintf("%d cyc", r.Baseline.RuntimeCycles),
					fmt.Sprintf("%d cyc", r.TwoPhase.RuntimeCycles),
					metrics.Pct(r.Speedup()),
				})
				sum += r.Speedup()
			}
			rows = append(rows, []string{"average", s.Backend.String(), "", "", metrics.Pct(sum / float64(len(s.Benches)))})
			return map[string]any{"speedup": rows2(rows)}
		}},
	// One benchmark's (error rate × 3 architectures) grid. Fault decisions
	// are keyed by (seed, link, packet serial), so the rows are
	// byte-identical at any worker count.
	{name: "fault", axes: []Axis{{"ber", []string{"0", "1e-07", "1e-06", "1e-05", "0.0001"}}, modes},
		render: func(s SweepSpec, c []SweepCell) map[string]any {
			rows := make([]FaultSweepRow, len(s.Axes[0].Values))
			for b, v := range s.Axes[0].Values {
				ber, _ := strconv.ParseFloat(v, 64)
				r := c[3*b:]
				rows[b] = FaultSweepRow{BER: ber, Baseline: r[0].Res, DMCOnly: r[1].Res, TwoPhase: r[2].Res}
			}
			return map[string]any{"rows": rows, "table": FaultSweepTable(rows)}
		}},
	// The stride microbenchmark ladder (stride1 … stride32) under every
	// front-end × scheduler combination: the GPU memory-coalescing
	// efficiency staircase, measured on both front-ends with each issue
	// policy.
	{name: "stride", benches: workloads.StrideNames, axes: strideAxes,
		render: func(s SweepSpec, c []SweepCell) map[string]any {
			n := len(c) / len(s.Benches)
			runs := make([]StrideRun, len(s.Benches))
			for b, name := range s.Benches {
				runs[b] = StrideRun{Name: name, Results: cellValues(c[b*n:(b+1)*n], func(r Result) Result { return r })}
			}
			return map[string]any{"runs": runs, "table": StrideLadderTable(runs)}
		}},
}

// timeouts is the Figure 14 timeout axis.
var timeouts = Axis{"timeout", []string{"16", "20", "24", "28"}}

// latencyNs is the timeout sweeps' metric.
func latencyNs(r Result) float64 { return r.Coalescer.AvgRequestLatencyNs(r.ClockGHz) }

// cellValues maps each cell's simulation result through f.
func cellValues[T any](cells []SweepCell, f func(Result) T) []T {
	out := make([]T, len(cells))
	for i, c := range cells {
		out[i] = f(c.Res)
	}
	return out
}

// LookupPreset returns the named preset: runall, fig14, timeout, mshr,
// speedup, fault or stride.
func LookupPreset(name string) (*Preset, error) {
	names := make([]string, len(presets))
	for i, p := range presets {
		if p.name == name {
			return p, nil
		}
		names[i] = p.name
	}
	return nil, fmt.Errorf("hmccoal: unknown sweep %q (valid: %s)", name, strings.Join(names, ", "))
}

// Spec builds the preset's grid at trace parameters p under opt's Checks
// and Variant. bench names the benchmark of a one-benchmark preset; the
// others ignore it. An override with values replaces the defaults of the
// preset's axis of the same name; one for an axis the preset does not
// sweep is ignored. The spec is compiled, so a bad grid fails here rather
// than after it starts.
func (pr *Preset) Spec(bench string, p TraceParams, opt SweepOptions, override ...Axis) (SweepSpec, error) {
	s := SweepSpec{Params: p, Checks: opt.Checks, Variant: opt.Variant}
	if pr.benches != nil {
		s.Benches = pr.benches()
	} else if _, err := DescribeBenchmark(bench); err != nil {
		return s, err
	} else {
		s.Benches = []string{bench}
	}
	for _, a := range pr.axes {
		def := axisTable[a.Name]
		for _, o := range override {
			if o.Name != a.Name || len(o.Values) == 0 {
				continue
			}
			if def.fixed {
				return s, fmt.Errorf("hmccoal: the %s sweep fixes its %s axis", pr.name, a.Name)
			}
			a.Values = o.Values
		}
		if def.unset != nil {
			def.unset(&s)
		}
		s.Axes = append(s.Axes, a)
	}
	_, err := s.compile()
	return s, err
}

// Run executes a spec built by Spec and renders its cells: the named
// results of the grid, plus "bench" for a one-benchmark preset. A
// cancelled ctx or the first job error aborts the sweep.
func (pr *Preset) Run(ctx context.Context, s SweepSpec, opt SweepOptions) (map[string]any, error) {
	cells, err := mapSpec(ctx, s, opt)
	if err != nil {
		return nil, err
	}
	out := pr.render(s, cells)
	if pr.benches == nil {
		out["bench"] = s.Benches[0]
	}
	return out, nil
}

// RunPreset builds the named preset's grid with Spec and runs it.
func RunPreset(ctx context.Context, name, bench string, p TraceParams, opt SweepOptions, override ...Axis) (map[string]any, error) {
	pr, err := LookupPreset(name)
	if err != nil {
		return nil, err
	}
	s, err := pr.Spec(bench, p, opt, override...)
	if err != nil {
		return nil, err
	}
	return pr.Run(ctx, s, opt)
}

// RunAllContext executes every benchmark under all three architectures
// plus the payload analysis: the runall preset's runs, in figure order.
func RunAllContext(ctx context.Context, p TraceParams, opt SweepOptions) ([]BenchmarkRun, error) {
	out, err := RunPreset(ctx, "runall", "", p, opt)
	runs, _ := out["runs"].([]BenchmarkRun)
	return runs, err
}

// Figure14TableContext renders the fig14 preset's timeout sweep for every
// benchmark; nil timeouts use the default grid.
func Figure14TableContext(ctx context.Context, p TraceParams, timeouts []uint64, opt SweepOptions) (string, error) {
	out, err := RunPreset(ctx, "fig14", "", p, opt, AxisOf("timeout", timeouts))
	table, _ := out["figure14"].(string)
	return table, err
}

// FaultSweepContext runs the fault preset: one benchmark across injected
// link error rates (nil bers uses the default grid) under all three
// architectures, with fault seed seed (0 takes p.Seed).
func FaultSweepContext(ctx context.Context, name string, p TraceParams, seed uint64, bers []float64, opt SweepOptions) ([]FaultSweepRow, error) {
	pr, err := LookupPreset("fault")
	if err != nil {
		return nil, err
	}
	s, err := pr.Spec(name, p, opt, AxisOf("ber", bers))
	if err != nil {
		return nil, err
	}
	s.Seed = seed
	out, err := pr.Run(ctx, s, opt)
	rows, _ := out["rows"].([]FaultSweepRow)
	return rows, err
}

// FaultSweepRow is one injected-error-rate point of a fault sweep: the
// same trace replayed under all three architectures with the same fault
// seed.
type FaultSweepRow struct {
	BER      float64
	Baseline Result
	DMCOnly  Result
	TwoPhase Result
}

// Speedup is the two-phase runtime improvement over the conventional MHA
// at this error rate. It returns 0 when the row has no baseline data
// (Baseline.RuntimeCycles == 0); HasData distinguishes that case from a
// genuine zero speedup.
func (r FaultSweepRow) Speedup() float64 {
	if !r.HasData() {
		return 0
	}
	return 1 - float64(r.TwoPhase.RuntimeCycles)/float64(r.Baseline.RuntimeCycles)
}

// HasData reports whether the row holds actual runs: a zero baseline
// runtime means the row's simulations never executed (a partially
// restored or aborted sweep), so ratios over it are meaningless.
func (r FaultSweepRow) HasData() bool { return r.Baseline.RuntimeCycles != 0 }

// StrideRun is one stride microbenchmark replayed under every front-end ×
// scheduler combination, results in strideAxes grid order.
type StrideRun struct {
	Name    string
	Results []Result
}
