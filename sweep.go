package hmccoal

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"hmccoal/internal/metrics"
	"hmccoal/internal/sweep"
	"hmccoal/internal/workloads"
)

// SweepOptions tunes the parallel evaluation sweeps (RunAllContext,
// Figure14TableContext, …).
type SweepOptions struct {
	// Workers is the simulation worker-pool size. 0 uses every core
	// (GOMAXPROCS); 1 reproduces the old strictly serial pipeline. The
	// results are byte-identical at any worker count — only wall-clock
	// changes.
	Workers int
	// Batch is the number of simulations one batch engine advances in
	// lockstep (sim.RunBatch lanes). 0 or 1 keeps the one-job-one-system
	// path; at K ≥ 2 each worker pulls groups of jobs and runs them on K
	// reusable lanes, so a dense sweep pays system construction per lane
	// instead of per job. Results are byte-identical at any batch width —
	// like Workers, Batch only changes wall-clock.
	Batch int
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
	// not Batch or Checks — so a checkpoint only restores into a sweep
	// with the same inputs; batched, unbatched, checked and distributed
	// runs of one grid resume from each other's checkpoints.
	Checkpoint string
	// Backend selects the memory device for every simulation of the sweep
	// (see Config.Backend). The zero value is the default HMC model.
	Backend BackendKind
	// Frontend and Sched select the coalescing front-end and its issue
	// policy for every simulation of the sweep (see Config.Frontend,
	// Config.Sched). The StrideLadder grid sweeps both axes itself and
	// ignores these.
	Frontend FrontendKind
	Sched    SchedKind
	// Dispatch, when non-nil, ships every job group to external executors
	// instead of running it in-process — the distributed sweep path (see
	// Dispatcher and internal/dsweep). Workers then bounds in-flight
	// groups rather than local simulation goroutines; checkpointing,
	// progress and result assembly are unchanged, and the output stays
	// byte-identical to the in-process run.
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

// spec is the serializable description of one of this option set's grids.
func (o SweepOptions) spec(kind SweepKind, p TraceParams) SweepSpec {
	s := SweepSpec{Kind: kind, Params: p, Checks: o.Checks, Batch: o.Batch}
	if o.Backend != BackendHMC {
		s.Backend = o.Backend.String()
	}
	if o.Frontend != FrontendTwoPhase {
		s.Frontend = o.Frontend.String()
	}
	if o.Sched != SchedFRFCFS {
		s.Sched = o.Sched.String()
	}
	return s
}

// batchLaneJobs is how many jobs each batch lane serves on average: a
// batched sweep hands each engine invocation Batch×batchLaneJobs jobs on
// Batch lanes, so every lane retires and refills several times — that
// refill (System.Reset instead of NewSystem) is where the batch engine's
// throughput comes from. Fresh builds per group equal the lane count, so
// the reuse fraction is 1-1/batchLaneJobs; eight keeps seven of every
// eight jobs on recycled systems while a group stays small enough that a
// failed group forfeits only a modest slice of checkpoint progress — and,
// distributed, a lost worker forfeits only one group's recompute.
const batchLaneJobs = 8

// groupSize is the number of grid jobs handed to one engine invocation —
// local batch group or remote dispatch unit alike.
func (o SweepOptions) groupSize() int {
	if o.Batch <= 1 {
		return 1
	}
	return o.Batch * batchLaneJobs
}

// runMode builds a fresh system (sim.System is single-use) and replays the
// trace under the given miss-handling architecture.
func runMode(name string, m Mode, cfg Config, accs []Access) (Result, error) {
	cfg.Mode = m
	sys, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := sys.Run(accs)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%v: %w", name, m, err)
	}
	return res, nil
}

// traceTable shares each benchmark's lazily generated trace — and its CSR
// bucketing — across the sweep's jobs, and releases both once the
// benchmark's last job completes, so a long sweep holds only the traces
// still in flight instead of pinning every trace it ever generated.
type traceTable struct {
	names []string
	p     TraceParams
	cpus  int // the simulated systems' CPU count (for the shared index)
	cells []traceCell
}

// traceCell is one benchmark's shared trace with its remaining-jobs
// refcount.
type traceCell struct {
	mu      sync.Mutex
	accs    []Access
	idx     *TraceIndex
	err     error
	built   bool
	pending int // jobs not yet completed; trace and index drop at 0
}

// newTraceTable builds the per-benchmark trace cells for a sweep whose
// grid runs jobsPer jobs against each benchmark's trace.
func newTraceTable(names []string, p TraceParams, cpus, jobsPer int) *traceTable {
	t := &traceTable{names: names, p: p, cpus: cpus, cells: make([]traceCell, len(names))}
	for i := range t.cells {
		t.cells[i].pending = jobsPer
	}
	return t
}

// get returns benchmark b's trace and shared index, generating both on
// first use. Distinct benchmarks generate concurrently; same-benchmark
// callers serialize on the cell.
func (t *traceTable) get(b int) ([]Access, *TraceIndex, error) {
	c := &t.cells[b]
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.built {
		c.built = true
		c.accs, c.err = GenerateTrace(t.names[b], t.p)
		if c.err == nil {
			c.idx, c.err = NewTraceIndex(c.accs, t.cpus)
		}
	}
	return c.accs, c.idx, c.err
}

// done retires one of benchmark b's jobs, dropping the trace and index
// when the last one completes. Jobs restored from a checkpoint never call
// done; if no other job of that benchmark runs, its cell was never
// generated and holds nothing, and if one does, the cell stays resident
// for the sweep's remainder — no worse than the old always-pinned table.
func (t *traceTable) done(b int) {
	c := &t.cells[b]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending--; c.pending == 0 {
		c.accs, c.idx = nil, nil
	}
}

// resident reports whether benchmark b's trace is currently held (test
// hook for the release contract).
func (t *traceTable) resident(b int) bool {
	c := &t.cells[b]
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.accs != nil
}

// mapSpec fans a sweep grid across the engine. In-process, each group of
// grid indices runs through runSpecGroup on traces shared (and released)
// by a refcounted table; with opt.Dispatch set, the same groups ship to
// remote executors as (spec, indices) pairs and come back as JSON cells.
// Either way post maps each cell to the driver's own type on the calling
// process — so the checkpoint format, the progress cadence and the final
// output are identical across local, batched and distributed runs.
func mapSpec[T any](ctx context.Context, spec SweepSpec, opt SweepOptions, post func(i int, c SweepCell) T) ([]T, error) {
	g, err := spec.compile()
	if err != nil {
		return nil, err
	}
	eng, err := opt.engine(spec)
	if err != nil {
		return nil, err
	}
	if opt.Dispatch != nil {
		raw, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("hmccoal: encode sweep spec: %w", err)
		}
		return sweep.MapBatch(ctx, g.n(), opt.groupSize(), eng,
			func(ctx context.Context, idxs []int) ([]T, error) {
				cells, err := opt.Dispatch.RunGroup(ctx, raw, idxs)
				if err != nil {
					return nil, err
				}
				if len(cells) != len(idxs) {
					return nil, fmt.Errorf("hmccoal: dispatcher returned %d cells for %d jobs", len(cells), len(idxs))
				}
				out := make([]T, len(idxs))
				for k, i := range idxs {
					var c SweepCell
					if err := json.Unmarshal(cells[k], &c); err != nil {
						return nil, fmt.Errorf("hmccoal: decode cell %d: %w", i, err)
					}
					out[k] = post(i, c)
				}
				return out, nil
			})
	}
	tr := newTraceTable(g.benches, spec.Params, g.base.Hierarchy.CPUs, g.perBench)
	return sweep.MapBatch(ctx, g.n(), opt.groupSize(), eng,
		func(_ context.Context, idxs []int) ([]T, error) {
			cells, err := runSpecGroup(g, spec.Batch, idxs, tr.get)
			if err != nil {
				return nil, err
			}
			out := make([]T, len(idxs))
			for k, i := range idxs {
				out[k] = post(i, cells[k])
				tr.done(i / g.perBench)
			}
			return out, nil
		})
}

// The RunAll grid runs four independent jobs per benchmark: the three
// architectures of Figure 8 plus the payload-granularity analysis.
const runAllKinds = 4

var runAllModes = [3]Mode{ModeBaseline, ModeDMCOnly, ModeTwoPhase}

// RunAllContext executes every benchmark under all three architectures on
// a worker pool, fanning the (benchmark × mode) and (benchmark × payload
// analysis) jobs across opt.Workers goroutines — batched onto shared
// engine lanes when opt.Batch is set, or shipped to distributed workers
// when opt.Dispatch is. Each benchmark's trace is generated and
// CSR-bucketed once per process, shared by its four jobs, and released
// when the last of them completes. Results are in figure order regardless
// of completion order; a cancelled ctx or the first job error aborts the
// sweep.
func RunAllContext(ctx context.Context, p TraceParams, opt SweepOptions) ([]BenchmarkRun, error) {
	names := Benchmarks()
	spec := opt.spec(SweepRunAll, p)
	spec.Benches = names
	cells, err := mapSpec(ctx, spec, opt, func(_ int, c SweepCell) SweepCell { return c })
	if err != nil {
		return nil, err
	}
	runs := make([]BenchmarkRun, len(names))
	for b, name := range names {
		runs[b] = BenchmarkRun{
			Name:     name,
			Baseline: cells[b*runAllKinds+0].Res,
			DMCOnly:  cells[b*runAllKinds+1].Res,
			TwoPhase: cells[b*runAllKinds+2].Res,
			Payload:  cells[b*runAllKinds+3].Pay,
		}
	}
	return runs, nil
}

// latencyCell maps a sweep cell to the timeout sweeps' metric.
func latencyCell(_ int, c SweepCell) float64 {
	return c.Res.Coalescer.AvgRequestLatencyNs(c.Res.ClockGHz)
}

// TimeoutSweepContext is TimeoutSweep on a worker pool: the benchmark's
// trace is generated and bucketed once and the per-timeout runs fan out
// in parallel (batched onto shared lanes when opt.Batch is set).
func TimeoutSweepContext(ctx context.Context, name string, p TraceParams, timeouts []uint64, opt SweepOptions) ([]float64, error) {
	if len(timeouts) == 0 {
		timeouts = defaultTimeouts()
	}
	spec := opt.spec(SweepTimeout, p)
	spec.Bench, spec.Timeouts = name, timeouts
	return mapSpec(ctx, spec, opt, latencyCell)
}

// Figure14TableContext renders the timeout sweep for every benchmark,
// fanning the full (benchmark × timeout) grid across the worker pool with
// one shared trace per benchmark, released as benchmarks complete.
func Figure14TableContext(ctx context.Context, p TraceParams, timeouts []uint64, opt SweepOptions) (string, error) {
	if len(timeouts) == 0 {
		timeouts = defaultTimeouts()
	}
	names := Benchmarks()
	spec := opt.spec(SweepFig14, p)
	spec.Benches, spec.Timeouts = names, timeouts
	lat, err := mapSpec(ctx, spec, opt, latencyCell)
	if err != nil {
		return "", err
	}
	header := []string{"benchmark"}
	for _, to := range timeouts {
		header = append(header, fmt.Sprintf("T=%d", to))
	}
	rows := [][]string{header}
	for b, name := range names {
		row := []string{name}
		for t := range timeouts {
			row = append(row, metrics.Ns(lat[b*len(timeouts)+t]))
		}
		rows = append(rows, row)
	}
	return rows2(rows), nil
}

// speedupModes is the SpeedupTable grid: the conventional MHA against the
// full coalescer.
var speedupModes = [2]Mode{ModeBaseline, ModeTwoPhase}

// SpeedupTableContext renders the Figure 15 runtime-improvement study on a
// chosen memory backend: every benchmark under the conventional MHA and
// the two-phase coalescer, with runtimes and the relative improvement. The
// (benchmark × mode) grid fans across the worker pool with one shared
// trace per benchmark. Unlike Figure15Table it carries a backend column,
// so ddr/ideal runs are comparable against the HMC rows side by side.
func SpeedupTableContext(ctx context.Context, p TraceParams, opt SweepOptions) (string, error) {
	names := Benchmarks()
	nModes := len(speedupModes)
	spec := opt.spec(SweepSpeedup, p)
	spec.Benches = names
	cells, err := mapSpec(ctx, spec, opt, func(_ int, c SweepCell) Result { return c.Res })
	if err != nil {
		return "", err
	}
	rows := [][]string{{"benchmark", "backend", "MSHR-based", "two-phase", "improvement"}}
	var sum float64
	for b, name := range names {
		base, two := cells[b*nModes+0], cells[b*nModes+1]
		r := BenchmarkRun{Baseline: base, TwoPhase: two}
		rows = append(rows, []string{
			name,
			opt.Backend.String(),
			fmt.Sprintf("%d cyc", base.RuntimeCycles),
			fmt.Sprintf("%d cyc", two.RuntimeCycles),
			metrics.Pct(r.Speedup()),
		})
		sum += r.Speedup()
	}
	if len(names) > 0 {
		rows = append(rows, []string{"average", opt.Backend.String(), "", "", metrics.Pct(sum / float64(len(names)))})
	}
	return rows2(rows), nil
}

// SpeedupTable is SpeedupTableContext without cancellation.
func SpeedupTable(p TraceParams, opt SweepOptions) (string, error) {
	return SpeedupTableContext(context.Background(), p, opt)
}

// MSHRSweepContext is MSHRSweep on a worker pool.
func MSHRSweepContext(ctx context.Context, name string, p TraceParams, entries []int, opt SweepOptions) ([]float64, error) {
	if len(entries) == 0 {
		entries = []int{8, 16, 32, 64}
	}
	spec := opt.spec(SweepMSHR, p)
	spec.Bench, spec.Entries = name, entries
	return mapSpec(ctx, spec, opt, func(_ int, c SweepCell) float64 { return c.Res.CoalescingEfficiency() })
}

// defaultTimeouts is the Figure 14 sweep grid.
func defaultTimeouts() []uint64 { return []uint64{16, 20, 24, 28} }

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

// defaultBERs is the fault sweep grid: clean link up to one error per
// ~10^4 bits.
func defaultBERs() []float64 { return []float64{0, 1e-7, 1e-6, 1e-5, 1e-4} }

// FaultSweep runs one benchmark across injected link error rates under all
// three architectures; see FaultSweepContext.
func FaultSweep(name string, p TraceParams, seed uint64, bers []float64) ([]FaultSweepRow, error) {
	return FaultSweepContext(context.Background(), name, p, seed, bers, SweepOptions{})
}

// FaultSweepContext fans the (error rate × mode) grid across the worker
// pool. Fault decisions are keyed by (seed, link, packet serial), so the
// rows are byte-identical at any worker count and batch width. A nil bers
// uses the default grid.
func FaultSweepContext(ctx context.Context, name string, p TraceParams, seed uint64, bers []float64, opt SweepOptions) ([]FaultSweepRow, error) {
	if len(bers) == 0 {
		bers = defaultBERs()
	}
	nModes := len(runAllModes)
	spec := opt.spec(SweepFault, p)
	spec.Bench, spec.BERs, spec.Seed = name, bers, seed
	cells, err := mapSpec(ctx, spec, opt, func(_ int, c SweepCell) Result { return c.Res })
	if err != nil {
		return nil, err
	}
	rows := make([]FaultSweepRow, len(bers))
	for b := range bers {
		rows[b] = FaultSweepRow{
			BER:      bers[b],
			Baseline: cells[b*nModes+0],
			DMCOnly:  cells[b*nModes+1],
			TwoPhase: cells[b*nModes+2],
		}
	}
	return rows, nil
}

// strideCombos is the front-end × scheduler axis of the stride-ladder
// grid, in display order: both issue policies under the paper's two-phase
// coalescer, then under the GPU-style warp coalescing unit.
var strideCombos = [4]struct {
	fe    FrontendKind
	sched SchedKind
}{
	{FrontendTwoPhase, SchedFRFCFS},
	{FrontendTwoPhase, SchedHetero},
	{FrontendWarp, SchedFRFCFS},
	{FrontendWarp, SchedHetero},
}

// StrideRun is one stride microbenchmark replayed under every front-end ×
// scheduler combination, results in strideCombos order.
type StrideRun struct {
	Name    string
	Results [len(strideCombos)]Result
}

// StrideLadderContext runs the stride microbenchmark ladder (stride1 …
// stride32) under every {front-end × scheduler} combination: the classic
// GPU memory-coalescing efficiency staircase, measured on both the
// two-phase coalescer and the warp coalescing unit with each issue
// policy. The (stride × combination) grid fans across the worker pool
// with one shared trace per stride, and like every sweep the rows are
// byte-identical at any worker count, batch width or under distributed
// dispatch.
func StrideLadderContext(ctx context.Context, p TraceParams, opt SweepOptions) ([]StrideRun, error) {
	names := workloads.StrideNames()
	spec := opt.spec(SweepStride, p)
	spec.Benches = names
	cells, err := mapSpec(ctx, spec, opt, func(_ int, c SweepCell) Result { return c.Res })
	if err != nil {
		return nil, err
	}
	n := len(strideCombos)
	runs := make([]StrideRun, len(names))
	for b, name := range names {
		runs[b].Name = name
		copy(runs[b].Results[:], cells[b*n:(b+1)*n])
	}
	return runs, nil
}

// StrideLadder is StrideLadderContext without cancellation.
func StrideLadder(p TraceParams, opt SweepOptions) ([]StrideRun, error) {
	return StrideLadderContext(context.Background(), p, opt)
}
