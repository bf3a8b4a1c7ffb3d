package hmccoal

import (
	"context"
	"fmt"
	"sort"

	"hmccoal/internal/metrics"
)

// BenchmarkRun bundles one benchmark's results across the three evaluated
// miss-handling architectures plus the payload-granularity analysis.
type BenchmarkRun struct {
	Name     string
	Baseline Result // conventional MSHR-based coalescing
	DMCOnly  Result // first phase only
	TwoPhase Result // the full memory coalescer
	Payload  PayloadAnalysis
}

// Speedup is the Figure 15 metric: runtime improvement of the two-phase
// coalescer over the conventional MHA.
func (r BenchmarkRun) Speedup() float64 {
	if r.Baseline.RuntimeCycles == 0 {
		return 0
	}
	return 1 - float64(r.TwoPhase.RuntimeCycles)/float64(r.Baseline.RuntimeCycles)
}

// RunBenchmark executes the named benchmark at the given scale, on
// p.CPUs cores, under all three architectures plus the payload analysis:
// a one-benchmark runall sweep.
func RunBenchmark(name string, p TraceParams) (BenchmarkRun, error) {
	pr, err := LookupPreset("runall")
	if err != nil {
		return BenchmarkRun{}, err
	}
	s, err := pr.Spec("", p, SweepOptions{})
	if err != nil {
		return BenchmarkRun{}, err
	}
	s.Benches = []string{name}
	out, err := pr.Run(context.Background(), s, SweepOptions{})
	if err != nil {
		return BenchmarkRun{}, err
	}
	return out["runs"].([]BenchmarkRun)[0], nil
}

// Figure1Table renders the analytic bandwidth-efficiency series.
func Figure1Table() string {
	rows := [][]string{{"request", "bandwidth efficiency", "control overhead"}}
	for _, r := range metrics.Figure1() {
		rows = append(rows, []string{
			fmt.Sprintf("%d B", r.RequestBytes),
			metrics.Pct(r.Efficiency),
			metrics.Pct(r.ControlOverhead),
		})
	}
	return rows2(rows)
}

// Figure2Table renders the control-overhead-by-volume series.
func Figure2Table() string {
	rows := [][]string{{"data volume", "request size", "control data"}}
	for _, r := range metrics.Figure2(nil) {
		rows = append(rows, []string{
			metrics.MB(int64(r.TotalBytes)),
			fmt.Sprintf("%d B", r.RequestBytes),
			metrics.MB(int64(r.ControlBytes)),
		})
	}
	return rows2(rows)
}

// Figure8Table renders coalescing efficiency per benchmark and mode.
func Figure8Table(runs []BenchmarkRun) string {
	rows := [][]string{{"benchmark", "MSHR-based", "DMC unit", "two-phase"}}
	var a, b, c float64
	for _, r := range runs {
		rows = append(rows, []string{
			r.Name,
			metrics.Pct(r.Baseline.CoalescingEfficiency()),
			metrics.Pct(r.DMCOnly.CoalescingEfficiency()),
			metrics.Pct(r.TwoPhase.CoalescingEfficiency()),
		})
		a += r.Baseline.CoalescingEfficiency()
		b += r.DMCOnly.CoalescingEfficiency()
		c += r.TwoPhase.CoalescingEfficiency()
	}
	if n := float64(len(runs)); n > 0 {
		rows = append(rows, []string{"average", metrics.Pct(a / n), metrics.Pct(b / n), metrics.Pct(c / n)})
	}
	return rows2(rows)
}

// Figure9Table renders raw vs coalesced bandwidth efficiency (Equation 1,
// payload-granularity per §5.3.2).
func Figure9Table(runs []BenchmarkRun) string {
	rows := [][]string{{"benchmark", "raw", "coalesced"}}
	var a, b float64
	for _, r := range runs {
		rows = append(rows, []string{
			r.Name,
			metrics.Pct(r.Payload.RawEfficiency()),
			metrics.Pct(r.Payload.CoalescedEfficiency()),
		})
		a += r.Payload.RawEfficiency()
		b += r.Payload.CoalescedEfficiency()
	}
	if n := float64(len(runs)); n > 0 {
		rows = append(rows, []string{"average", metrics.Pct(a / n), metrics.Pct(b / n)})
	}
	return rows2(rows)
}

// Figure10Table renders the coalesced request size distribution of one
// benchmark (the paper plots HPCG).
func Figure10Table(r BenchmarkRun) string {
	sizes := make([]uint32, 0, len(r.Payload.Hist))
	for s := range r.Payload.Hist {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	rows := make([][2]uint64, len(sizes))
	for i, s := range sizes {
		rows[i] = [2]uint64{uint64(s), r.Payload.Hist[s]}
	}
	return histTable(rows)
}

// PacketSizeTable renders the HMC device's packet-size histogram for one
// run, iterating in deterministic ascending order via SizeHistSorted.
func PacketSizeTable(r Result) string {
	hist := r.HMC.SizeHistSorted()
	rows := make([][2]uint64, len(hist))
	for i, sc := range hist {
		rows[i] = [2]uint64{uint64(sc.Size), sc.Count}
	}
	return histTable(rows)
}

// histTable renders sorted (size, count) pairs as a size/requests/share
// table — the shared shape of every size-distribution figure.
func histTable(pairs [][2]uint64) string {
	var total uint64
	for _, p := range pairs {
		total += p[1]
	}
	rows := [][]string{{"size", "requests", "share"}}
	for _, p := range pairs {
		share := 0.0
		if total > 0 {
			share = float64(p[1]) / float64(total)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d B", p[0]),
			fmt.Sprintf("%d", p[1]),
			metrics.Pct(share),
		})
	}
	return rows2(rows)
}

// Figure11Table renders per-benchmark bandwidth savings.
func Figure11Table(runs []BenchmarkRun) string {
	rows := [][]string{{"benchmark", "saved transfer"}}
	var sum int64
	for _, r := range runs {
		rows = append(rows, []string{r.Name, metrics.MB(r.Payload.SavedBytes())})
		sum += r.Payload.SavedBytes()
	}
	if len(runs) > 0 {
		rows = append(rows, []string{"average", metrics.MB(sum / int64(len(runs)))})
	}
	return rows2(rows)
}

// Figure12Table renders the average DMC-unit coalescing latency.
func Figure12Table(runs []BenchmarkRun) string {
	rows := [][]string{{"benchmark", "DMC latency"}}
	var sum float64
	for _, r := range runs {
		ns := r.TwoPhase.Coalescer.AvgDMCLatencyNs(r.TwoPhase.ClockGHz)
		rows = append(rows, []string{r.Name, metrics.Ns(ns)})
		sum += ns
	}
	if len(runs) > 0 {
		rows = append(rows, []string{"average", metrics.Ns(sum / float64(len(runs)))})
	}
	return rows2(rows)
}

// Figure13Table renders the average CRQ fill time.
func Figure13Table(runs []BenchmarkRun) string {
	rows := [][]string{{"benchmark", "CRQ fill time"}}
	var sum float64
	for _, r := range runs {
		ns := r.TwoPhase.Coalescer.AvgCRQFillNs(r.TwoPhase.ClockGHz)
		rows = append(rows, []string{r.Name, metrics.Ns(ns)})
		sum += ns
	}
	if len(runs) > 0 {
		rows = append(rows, []string{"average", metrics.Ns(sum / float64(len(runs)))})
	}
	return rows2(rows)
}

// Figure15Table renders the runtime improvement of the memory coalescer.
func Figure15Table(runs []BenchmarkRun) string {
	rows := [][]string{{"benchmark", "improvement"}}
	var sum float64
	for _, r := range runs {
		rows = append(rows, []string{r.Name, metrics.Pct(r.Speedup())})
		sum += r.Speedup()
	}
	if len(runs) > 0 {
		rows = append(rows, []string{"average", metrics.Pct(sum / float64(len(runs)))})
	}
	return rows2(rows)
}

// FaultSweepTable renders a fault sweep: device bandwidth efficiency per
// architecture, the two-phase speedup, and the two-phase fault-recovery
// counters (link retries, poisoned responses, cycles in degraded mode) at
// each injected error rate.
func FaultSweepTable(rows []FaultSweepRow) string {
	out := [][]string{{"BER", "MSHR-based", "DMC unit", "two-phase", "speedup", "retries", "poisoned", "degraded"}}
	for _, r := range rows {
		// A row with no baseline data (its runs never executed — aborted or
		// partially restored sweep) has no speedup; Speedup() returns 0
		// there, which would render identically to a genuine zero speedup.
		speedup := "n/a"
		if r.HasData() {
			speedup = metrics.Pct(r.Speedup())
		}
		out = append(out, []string{
			fmt.Sprintf("%.0e", r.BER),
			metrics.Pct(r.Baseline.HMC.BandwidthEfficiency()),
			metrics.Pct(r.DMCOnly.HMC.BandwidthEfficiency()),
			metrics.Pct(r.TwoPhase.HMC.BandwidthEfficiency()),
			speedup,
			fmt.Sprintf("%d", r.TwoPhase.HMC.Retries),
			fmt.Sprintf("%d", r.TwoPhase.HMC.PoisonedResponses),
			fmt.Sprintf("%d", r.TwoPhase.Coalescer.DegradedCycles),
		})
	}
	return rows2(out)
}

// StrideLadderTable renders the front-end efficiency ladder: coalescing
// efficiency per stride under every {front-end × scheduler} combination,
// plus each combination's device bandwidth efficiency. Stride 1 walks
// adjacent lines (everything merges) and each rung doubles the gap until
// nothing does — how much each front-end extracts from the dense rungs,
// and where its merging collapses, is the comparison the figure makes.
func StrideLadderTable(runs []StrideRun) string {
	header := []string{"stride", "metric"}
	for _, fe := range strideAxes[0].Values {
		for _, sched := range strideAxes[1].Values {
			header = append(header, fe+"/"+sched)
		}
	}
	rows := [][]string{header}
	for _, r := range runs {
		eff := []string{r.Name, "coalescing"}
		bw := []string{"", "bandwidth"}
		for _, res := range r.Results {
			eff = append(eff, metrics.Pct(res.CoalescingEfficiency()))
			bw = append(bw, metrics.Pct(res.CoalescedBandwidthEfficiency()))
		}
		rows = append(rows, eff, bw)
	}
	return rows2(rows)
}

// rows2 formats a table (indirection keeps metrics out of the public API).
func rows2(rows [][]string) string { return metrics.Table(rows) }

// Figure8Chart renders the two-phase coalescing efficiency per benchmark
// as an ASCII bar chart (percent).
func Figure8Chart(runs []BenchmarkRun) string {
	labels := make([]string, len(runs))
	values := make([]float64, len(runs))
	for i, r := range runs {
		labels[i] = r.Name
		values[i] = 100 * r.TwoPhase.CoalescingEfficiency()
	}
	return metrics.Bars(labels, values, 50)
}

// Figure15Chart renders the runtime improvement per benchmark as an ASCII
// bar chart (percent).
func Figure15Chart(runs []BenchmarkRun) string {
	labels := make([]string, len(runs))
	values := make([]float64, len(runs))
	for i, r := range runs {
		labels[i] = r.Name
		values[i] = 100 * r.Speedup()
	}
	return metrics.Bars(labels, values, 50)
}
