// Command hmccoal regenerates the evaluation figures of "Memory Coalescing
// for Hybrid Memory Cube" (ICPP 2018) on the simulated system.
//
// Usage:
//
//	hmccoal -fig all                 # every figure, all cores
//	hmccoal -fig all -workers 1      # same output, strictly serial
//	hmccoal -fig 8 -ops 8000         # one figure at a larger scale
//	hmccoal -fig 10 -bench HPCG      # Figure 10 for a chosen benchmark
//	hmccoal -fig fault -bench STREAM # fault sweep: efficiency vs link BER
//	hmccoal -fig all -checks         # same figures, invariant checker on
//	hmccoal -fig speedup -backend ddr # runtime improvement on another backend
//	hmccoal -run FT -backend ideal   # one benchmark, one summary
//	hmccoal -run FT -snapshot-at 1000000 # snapshot/restore mid-run, same summary
//	hmccoal -list                    # list the benchmarks
//	hmccoal -fig all -serve :7333    # distribute the sweeps to hmcsweepd workers
//	hmccoal -fig all -serve :7333 -token secret # only authenticated workers
//
// With -serve the process coordinates instead of simulating: it listens
// for hmcsweepd worker connections and ships sweep job groups to them
// (see internal/dsweep). The printed figures are byte-identical to a
// local run — only where the simulations execute changes. SIGUSR1 prints
// a status snapshot (queue depth, leases, per-worker throughput, auth
// rejects, reconnects) to stderr.
//
// Exit codes: 0 success, 1 usage/configuration error, 2 simulation or
// invariant-check failure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hmccoal"
	"hmccoal/internal/dsweep"
	"hmccoal/internal/profiling"
	"hmccoal/internal/sim"
	"hmccoal/internal/trace"
)

// figure is one -fig token: its section title, the preset sweep it reads
// ("" for the analytic figures) and how it renders that sweep's results.
// {bench} and {backend} in a title expand to the -bench and -backend
// flags, and a figure naming {bench} needs a known benchmark. Explicit
// figures print only when named; "all" is the paper's set.
type figure struct {
	token, title, preset string
	explicit             bool
	render               func(out map[string]any, bench string, chart bool) string
}

// runs is the runall preset's per-benchmark results.
func runs(out map[string]any) []hmccoal.BenchmarkRun { return out["runs"].([]hmccoal.BenchmarkRun) }

// figures lists every -fig token in output order.
var figures = []figure{
	{"1", "Figure 1 — bandwidth efficiency of HMC request packets", "", false,
		func(map[string]any, string, bool) string { return hmccoal.Figure1Table() }},
	{"2", "Figure 2 — control overhead of different requested data size", "", false,
		func(map[string]any, string, bool) string { return hmccoal.Figure2Table() }},
	{"8", "Figure 8 — coalescing efficiency", "runall", false,
		func(out map[string]any, _ string, chart bool) string {
			return withChart(hmccoal.Figure8Table(runs(out)), chart, hmccoal.Figure8Chart(runs(out)))
		}},
	{"9", "Figure 9 — bandwidth efficiency of coalesced and raw requests", "runall", false,
		func(out map[string]any, _ string, _ bool) string { return hmccoal.Figure9Table(runs(out)) }},
	{"10", "Figure 10 — coalesced HMC request distribution of {bench}", "runall", false,
		func(out map[string]any, bench string, _ bool) string {
			for _, r := range runs(out) {
				if r.Name == bench {
					return hmccoal.Figure10Table(r)
				}
			}
			return ""
		}},
	{"11", "Figure 11 — bandwidth saving", "runall", false,
		func(out map[string]any, _ string, _ bool) string { return hmccoal.Figure11Table(runs(out)) }},
	{"12", "Figure 12 — average latency of coalescing in the DMC unit", "runall", false,
		func(out map[string]any, _ string, _ bool) string { return hmccoal.Figure12Table(runs(out)) }},
	{"13", "Figure 13 — average time cost of filling up the CRQ", "runall", false,
		func(out map[string]any, _ string, _ bool) string { return hmccoal.Figure13Table(runs(out)) }},
	{"14", "Figure 14 — average coalescer latency vs timeout T", "fig14", false,
		func(out map[string]any, _ string, _ bool) string { return out["figure14"].(string) }},
	{"15", "Figure 15 — performance improvement with memory coalescer", "runall", false,
		func(out map[string]any, _ string, chart bool) string {
			return withChart(out["figure15"].(string), chart, hmccoal.Figure15Chart(runs(out)))
		}},
	{"speedup", "Speedup — runtime improvement on the {backend} backend", "speedup", true,
		func(out map[string]any, _ string, _ bool) string { return out["speedup"].(string) }},
	{"stride", "Stride ladder — front-end coalescing efficiency vs access stride", "stride", true,
		func(out map[string]any, _ string, _ bool) string { return out["table"].(string) }},
	{"fault", "Fault sweep — efficiency and speedup vs link error rate ({bench})", "fault", false,
		func(out map[string]any, _ string, _ bool) string { return out["table"].(string) }},
}

// withChart appends chart to table when asked.
func withChart(table string, on bool, chart string) string {
	if on {
		return table + "\n" + chart
	}
	return table
}

// figureTokens lists the -fig tokens for help and error texts.
func figureTokens() string {
	var toks []string
	for _, f := range figures {
		toks = append(toks, f.token)
	}
	return strings.Join(append(toks, "all"), ", ")
}

// Exit codes: flag/config mistakes are the user's to fix (1); a failed or
// invariant-violating simulation is the simulator's fault (2).
const (
	exitUsage = 1
	exitRun   = 2
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("hmccoal", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figures to regenerate, comma-separated: "+figureTokens()+" ('all' is the paper's set)")
		ops     = fs.Int("ops", 4000, "approximate memory operations per CPU (scale)")
		seed    = fs.Int64("seed", 3, "workload random seed")
		cpus    = fs.Int("cpus", 12, "number of simulated CPUs")
		bench   = fs.String("bench", "HPCG", "benchmark for figure 10")
		list    = fs.Bool("list", false, "list benchmarks and exit")
		chart   = fs.Bool("chart", false, "append ASCII bar charts to figures 8 and 15")
		workers = fs.Int("workers", 0, "simulation worker pool size (0 = all cores, 1 = serial)")
		replay  = fs.String("trace", "", "replay a binary trace file (from tracegen/rvsim) instead of running the benchmark suite")
		asJSON  = fs.Bool("json", false, "with -trace: emit the full results as JSON")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		exectrace  = fs.String("exectrace", "", "write a runtime execution trace to this file (-trace is taken by replay)")
		checks     = fs.Bool("checks", false, "enable the runtime invariant checker in every simulation (results identical; violations become errors)")
		checkpoint = fs.String("checkpoint", "", "JSONL checkpoint base path: each sweep persists completed jobs to <base>.<sweep> and resumes from it")
		runBench   = fs.String("run", "", "run one benchmark once (two-phase) and print its summary; combines with -backend, -faults and -snapshot-at")
		snapshotAt = fs.Uint64("snapshot-at", 0, "with -run: snapshot at this tick, restore into a fresh system, and finish from the snapshot — the summary is byte-identical to the uninterrupted run")
		faults     = fs.String("faults", "", "with -run: link fault injection (hmc backend only), e.g. seed=1,ber=1e-6[,drop=1e-7][,retries=3]")
	)
	var v hmccoal.Variant
	sim.RegisterVariantFlags(fs, &v)
	var serve dsweep.ServeFlags
	serve.Register(fs, "coordinate distributed sweeps: listen on this TCP address and ship sweep job groups to hmcsweepd workers instead of simulating locally")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}
	if *workers < 0 {
		return usageErr(fmt.Errorf("-workers must be ≥ 0, got %d", *workers))
	}
	if err := serve.Validate(); err != nil {
		return usageErr(err)
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return usageErr(err)
	}
	defer stopProf()

	// SIGTERM drains like Ctrl-C: sweeps stop at the next group boundary
	// with every completed job checkpointed, and a serving coordinator
	// stops handing out groups.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var dispatch hmccoal.Dispatcher
	// Coordinator chatter goes to stderr, keeping stdout byte-identical to
	// a local run.
	coord, err := serve.Start(os.Stderr, "hmccoal", nil)
	if err != nil {
		return usageErr(err)
	}
	if coord != nil {
		defer coord.Close()
		dispatch = coord

		// SIGUSR1 prints a status snapshot — queue depth, leases,
		// per-worker throughput, fault counters — to stderr on demand.
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		defer signal.Stop(usr1)
		go func() {
			for range usr1 {
				fmt.Fprintln(os.Stderr, "hmccoal:", coord.Status())
			}
		}()
	}

	if *runBench != "" {
		if err := validBenchmark(*runBench); err != nil {
			return usageErr(err)
		}
		faultCfg, err := hmccoal.ParseFaultFlag(*faults)
		if err != nil {
			return usageErr(fmt.Errorf("-faults: %w", err))
		}
		if v.Backend != hmccoal.BackendHMC && faultCfg.Enabled() {
			return usageErr(fmt.Errorf("fault injection is HMC-only; -backend must be hmc, not %v", v.Backend))
		}
		p := hmccoal.TraceParams{CPUs: *cpus, OpsPerCPU: *ops, Seed: *seed}
		if err := runOnce(*runBench, p, v, faultCfg, *checks, *snapshotAt); err != nil {
			return runErr(err)
		}
		return 0
	}

	if *replay != "" {
		accs, err := loadTrace(*replay)
		if err != nil {
			return usageErr(err)
		}
		if err := replayTrace(accs, *cpus, v, *checks, *asJSON); err != nil {
			return runErr(err)
		}
		return 0
	}

	if *list {
		for _, name := range hmccoal.Benchmarks() {
			desc, _ := hmccoal.DescribeBenchmark(name)
			fmt.Printf("%-9s %s\n", name, desc)
		}
		return 0
	}

	p := hmccoal.TraceParams{CPUs: *cpus, OpsPerCPU: *ops, Seed: *seed}
	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	var figs []figure
	for _, f := range figures {
		if want[f.token] || want["all"] && !f.explicit {
			figs = append(figs, f)
		}
		delete(want, f.token)
	}
	delete(want, "all")
	for f := range want {
		return usageErr(fmt.Errorf("unknown figure %q (valid: %s)", f, figureTokens()))
	}

	opts := func(tag string) hmccoal.SweepOptions {
		opt := sweepOptions(*workers, *checks, *checkpoint, tag, v)
		opt.Dispatch = dispatch
		return opt
	}
	// Every preset the figures need compiles before any of them runs, so
	// a bad grid is a usage error, not a failure halfway through.
	presets := map[string]*hmccoal.Preset{}
	specs := map[string]hmccoal.SweepSpec{}
	for _, f := range figs {
		if strings.Contains(f.title, "{bench}") {
			if err := validBenchmark(*bench); err != nil {
				return usageErr(err)
			}
		}
		if f.preset == "" || presets[f.preset] != nil {
			continue
		}
		pr, err := hmccoal.LookupPreset(f.preset)
		if err == nil {
			specs[f.preset], err = pr.Spec(*bench, p, opts(f.preset))
		}
		if err != nil {
			return usageErr(err)
		}
		presets[f.preset] = pr
	}

	outs := map[string]map[string]any{}
	title := strings.NewReplacer("{bench}", *bench, "{backend}", v.Backend.String())
	for _, f := range figs {
		if f.preset != "" && outs[f.preset] == nil {
			out, err := presets[f.preset].Run(ctx, specs[f.preset], opts(f.preset))
			fmt.Fprintln(os.Stderr)
			if err != nil {
				return runErr(err)
			}
			outs[f.preset] = out
		}
		section(title.Replace(f.title))
		fmt.Print(f.render(outs[f.preset], *bench, *chart))
	}
	return 0
}

// loadTrace reads and orders a captured trace file; a bad path or corrupt
// file is the user's mistake, so it is classified as a usage error.
func loadTrace(path string) ([]trace.Access, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	accs, err := trace.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	return trace.Merge(accs), nil // captured traces may be loosely ordered
}

// replayTrace runs a captured trace on machine v under the conventional
// MHA and the memory coalescer and prints both summaries.
func replayTrace(accs []trace.Access, cpus int, v hmccoal.Variant, checks, asJSON bool) error {
	if !asJSON {
		fmt.Println(trace.Summarize(accs))
	}
	results := map[string]hmccoal.Result{}
	for _, mode := range []hmccoal.Mode{hmccoal.ModeBaseline, hmccoal.ModeTwoPhase} {
		cfg := hmccoal.DefaultConfig()
		cfg.Hierarchy.CPUs = cpus
		cfg.Mode = mode
		cfg.Variant = v
		cfg.Checks = checks
		sys, err := hmccoal.NewSystem(cfg)
		if err != nil {
			return err
		}
		res, err := sys.Run(accs)
		if err != nil {
			return err
		}
		if asJSON {
			results[mode.String()] = res
			continue
		}
		section(fmt.Sprintf("%v", mode))
		fmt.Print(res.Summary())
		fmt.Printf("\ndevice packet sizes:\n%s", hmccoal.PacketSizeTable(res))
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}

// runOnce runs one benchmark once in two-phase mode on machine v and
// prints its summary. With snapAt > 0 the run is snapshotted at that
// tick, restored into a fresh system, and finished from the snapshot —
// stdout is byte-identical to the uninterrupted run (snapshot details go
// to stderr), which is exactly what the CI determinism check diffs.
func runOnce(bench string, p hmccoal.TraceParams, v hmccoal.Variant, faultCfg hmccoal.FaultConfig, checks bool, snapAt uint64) error {
	accs, err := hmccoal.GenerateTrace(bench, p)
	if err != nil {
		return err
	}
	cfg := hmccoal.DefaultConfig()
	cfg.Hierarchy.CPUs = p.CPUs
	cfg.Mode = hmccoal.ModeTwoPhase
	cfg.Variant = v
	cfg.Checks = checks
	cfg.HMC.Fault = faultCfg
	sys, err := hmccoal.NewSystem(cfg)
	if err != nil {
		return err
	}

	var res hmccoal.Result
	if snapAt == 0 {
		res, err = sys.Run(accs)
		if err != nil {
			return err
		}
	} else {
		res, err = runViaSnapshot(sys, cfg, accs, snapAt)
		if err != nil {
			return err
		}
	}
	// The default front-end keeps the historical title, so determinism
	// checks diffing default-run stdout stay byte-identical.
	title := fmt.Sprintf("%s on the %v backend (two-phase)", bench, v.Backend)
	if v.Frontend != hmccoal.FrontendTwoPhase || v.Sched != hmccoal.SchedFRFCFS {
		title = fmt.Sprintf("%s on the %v backend (%v front-end, %v)", bench, v.Backend, v.Frontend, v.Sched)
	}
	section(title)
	fmt.Print(res.Summary())
	return nil
}

// runViaSnapshot steps sys to snapAt, snapshots it, and finishes the run
// on a fresh system restored from the snapshot. A run that drains before
// snapAt finishes normally with a note on stderr.
func runViaSnapshot(sys *hmccoal.System, cfg hmccoal.Config, accs []hmccoal.Access, snapAt uint64) (hmccoal.Result, error) {
	if err := sys.Start(accs); err != nil {
		return hmccoal.Result{}, err
	}
	for sys.Tick() < snapAt {
		done, err := sys.Step()
		if err != nil {
			return hmccoal.Result{}, err
		}
		if done {
			fmt.Fprintf(os.Stderr, "hmccoal: run drained before tick %d; finishing without a snapshot\n", snapAt)
			return sys.Finish()
		}
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return hmccoal.Result{}, err
	}
	restored, err := hmccoal.NewSystem(cfg)
	if err != nil {
		return hmccoal.Result{}, err
	}
	if err := restored.Restore(snap); err != nil {
		return hmccoal.Result{}, err
	}
	fmt.Fprintf(os.Stderr, "hmccoal: snapshotted at tick %d, finishing from the restored copy\n", sys.Tick())
	for {
		done, err := restored.Step()
		if err != nil {
			return hmccoal.Result{}, err
		}
		if done {
			return restored.Finish()
		}
	}
}

// sweepOptions wires the worker count, the invariant-checker toggle, the
// machine and a stderr progress meter into a parallel sweep. Progress goes
// to stderr only, so stdout stays byte-identical at any worker count. Each
// sweep grid gets its own checkpoint file (<base>.<tag>) so resumes never
// mix grids.
func sweepOptions(workers int, checks bool, checkpoint, tag string, v hmccoal.Variant) hmccoal.SweepOptions {
	opt := hmccoal.SweepOptions{
		Workers: workers,
		Checks:  checks,
		Variant: v,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d simulations", done, total)
		},
	}
	if checkpoint != "" {
		opt.Checkpoint = checkpoint + "." + tag
	}
	return opt
}

// validBenchmark rejects names that are not in the benchmark suite.
func validBenchmark(name string) error {
	for _, n := range hmccoal.Benchmarks() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown benchmark %q (have %v)", name, hmccoal.Benchmarks())
}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// usageErr reports a configuration mistake (exit 1); runErr reports a
// failed simulation — including invariant violations (exit 2).
func usageErr(err error) int {
	fmt.Fprintln(os.Stderr, "hmccoal:", err)
	return exitUsage
}

func runErr(err error) int {
	fmt.Fprintln(os.Stderr, "hmccoal:", err)
	return exitRun
}
