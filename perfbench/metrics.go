package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric. The lists below are the benchmark's
// schema: BENCHMARK.json carries the same names and units, and the smoke
// test holds the two together.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run, the same four on every
// workload. Their timings are CPU time, not wall time: on a shared
// virtual host the hypervisor takes a share of wall time that drifts by
// minutes, and CPU time leaves it out. What a "unit of work" is depends on
// the workload; README.md defines it per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"sim_maccess_cpu_s", "M/cpu-s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// profiledLayers are the internal/ packages whose CPU-profile self time is
// reported as <layer>.self_ns_acc, plus the Go runtime; internal/trace
// counts as workloads, the trace-generation layer. Samples no entry
// claims are reported as other.share.
var profiledLayers = []string{
	"workloads", "sim", "cache", "coalescer", "sortnet", "frontend",
	"mshr", "hmc", "membackend", "runtime",
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0 (the sweep layer outside grid, jobserv and loadgen
// outside service).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.err_frac", "ratio", "lower"},
		{"bench.units", "count", "higher"},
		{"bench.op_samples", "count", "higher"},
		{"bench.wall_s", "s", "lower"},
		{"bench.op_p50_ms", "ms", "lower"},
		{"bench.op_p90_ms", "ms", "lower"},
		{"bench.op_p99_ms", "ms", "lower"},
		{"host.steal_pct", "%", "lower"},
		{"workloads.gen_s", "s", "lower"},
		{"workloads.accesses", "count", "higher"},
		{"sim.build_ms", "ms", "lower"},
		{"sim.build_allocs_2p", "count", "lower"},
		{"sim.build_allocs_warp", "count", "lower"},
		{"sim.steady_allocs_2p", "count", "lower"},
		{"sim.steady_allocs_warp", "count", "lower"},
		{"sim.steps", "count", "lower"},
		{"sim.ns_per_step", "ns", "lower"},
		{"cache.llc_miss_ratio", "ratio", "lower"},
		{"cache.l1_hit_ratio", "ratio", "higher"},
		{"coalescer.coal_eff", "ratio", "higher"},
		{"coalescer.first_phase_merges", "count", "higher"},
		{"coalescer.batches", "count", "lower"},
		{"coalescer.bypassed", "count", "lower"},
		{"mshr.merged", "count", "higher"},
		{"mshr.full_stalls", "count", "lower"},
		{"hmc.requests", "count", "lower"},
		{"hmc.bank_conflicts", "count", "lower"},
		{"hmc.bw_eff", "ratio", "higher"},
		{"runtime.gc_pct", "%", "lower"},
		{"runtime.alloc_mb", "MB", "lower"},
		{"other.share", "ratio", "lower"},
		{"sweep.runall_s", "s", "lower"},
		{"sweep.fig14_s", "s", "lower"},
		{"sweep.fault_s", "s", "lower"},
		{"sweep.jobs", "count", "higher"},
		{"sweep.tail_s", "s", "lower"},
		{"jobserv.submit_ms_p50", "ms", "lower"},
		{"jobserv.submit_ms_p99", "ms", "lower"},
		{"jobserv.exec_ms_p50", "ms", "lower"},
		{"jobserv.refused", "count", "lower"},
		{"jobserv.queue_max", "count", "lower"},
		{"jobserv.drain_jobs_s", "jobs/s", "higher"},
		{"loadgen.late_ms_max", "ms", "lower"},
	}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".self_ns_acc", "ns/acc", "lower"})
	}
	// The traced run's own end-to-end numbers next to the untraced run's
	// in the same process: their difference is the tracing overhead.
	for _, m := range endToEnd {
		defs = append(defs,
			metricDef{"traced." + m.Name, m.Unit, m.Better},
			metricDef{"untraced." + m.Name, m.Unit, m.Better})
	}
	return defs
}()

// measure is one measurement of a workload's end-to-end numbers.
type measure struct {
	setup     []float64 // CPU seconds, one per set-up repetition
	units     []float64 // CPU seconds, one per unit of work
	walls     []float64 // wall seconds, one per unit of work
	accesses  uint64    // simulated trace accesses in the timed phase
	rates     []float64 // simulated M accesses per CPU second, one per unit of work
	ops       []opSample
	peaks     []float64 // peak RSS of the simulating process, MB, one per unit of work
	steal     float64   // host steal over the timed phase, percent
	attempted int       // operations attempted
	failed    int       // failed, refused or output-mismatched operations
}

// endToEnd renders the four end-to-end metrics.
func (m *measure) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":           median(m.setup),
		"cpu_s":             median(m.units),
		"sim_maccess_cpu_s": median(m.rates),
		"peak_rss_mb":       median(m.peaks),
	}
}

// wallClock fills the per-layer wall-clock figures: what a user waits,
// but moved by host steal more than any bound could allow.
func (m *measure) wallClock(lay layers) {
	lay["bench.wall_s"] = median(m.walls)
	lay["bench.op_p50_ms"] = m.opPercentile(0.50)
	lay["bench.op_p90_ms"] = m.opPercentile(0.90)
	lay["bench.op_p99_ms"] = percentile(m.latencies(), 0.99)
	lay["bench.op_samples"] = float64(len(m.ops))
	lay["host.steal_pct"] = m.steal
}

// opWindows is how many stretches the single-run workloads' timed phase
// is cut into for operation percentiles.
const opWindows = 5

// opSample is one operation's latency.
type opSample struct {
	ms     float64
	kind   int // which kind of operation, where kinds differ in cost
	window int // which stretch of the timed phase it ran in
}

// latencies are all operation latencies, pooled.
func (m *measure) latencies() []float64 {
	out := make([]float64, len(m.ops))
	for i, o := range m.ops {
		out[i] = o.ms
	}
	return out
}

// opPercentile is the p-quantile of operation latency, taken within each
// window and reported as the median over windows, so a slow stretch of a
// shared host moves only the windows it covers. Within a window each kind
// gets its own quantile, combined by geometric mean: the single-run
// workloads' four kinds of run differ several-fold in cost and come in
// equal numbers, so a pooled median would fall in the gap between two
// kinds and swing with a single sample.
func (m *measure) opPercentile(p float64) float64 {
	windows := map[int]map[int][]float64{}
	for _, o := range m.ops {
		if windows[o.window] == nil {
			windows[o.window] = map[int][]float64{}
		}
		windows[o.window][o.kind] = append(windows[o.window][o.kind], o.ms)
	}
	var per []float64
	for _, kinds := range windows {
		logSum := 0.0
		for _, xs := range kinds {
			logSum += math.Log(percentile(xs, p))
		}
		per = append(per, math.Exp(logSum/float64(len(kinds))))
	}
	return median(per)
}

// fail records one failed operation with its reason on stderr.
func (m *measure) fail(format string, args ...any) {
	m.failed++
	logf("FAIL: "+format, args...)
}

// layers holds a traced run's per-layer values by metric name.
type layers map[string]float64

// output is the result line: every metric of defs, 0 where vals has none.
type output struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func render(defs []metricDef, vals map[string]float64) map[string]metricOutput {
	out := make(map[string]metricOutput, len(defs))
	for _, d := range defs {
		out[d.Name] = metricOutput{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// checkNames reports a value whose name is not in defs: a typo there
// would otherwise be silently reported as 0.
func checkNames(defs []metricDef, vals map[string]float64) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
	}
	for name := range vals {
		if !known[name] {
			return fmt.Errorf("perfbench: metric %q is not in the schema", name)
		}
	}
	return nil
}
