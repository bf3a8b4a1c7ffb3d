package hmccoal

// One benchmark per evaluation figure of the paper, plus ablations of the
// design choices called out in DESIGN.md. Each figure bench regenerates the
// figure's data series at laptop scale and reports the headline numbers as
// custom metrics; the full tables are logged with -v.
//
//	go test -bench=Fig -benchmem          # all figures
//	go test -bench=Ablation               # design-choice ablations
//	go test -bench=Fig08 -v               # one figure with its table

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"hmccoal/internal/hmc"
	"hmccoal/internal/metrics"
	"hmccoal/internal/sortnet"
)

// benchParams is the scale used by the figure benches: large enough for
// stable shapes, small enough that every bench iteration stays in seconds.
func benchParams() TraceParams {
	return TraceParams{CPUs: 12, OpsPerCPU: 1500, Seed: 3}
}

func BenchmarkFig01BandwidthEfficiency(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, r := range metrics.Figure1() {
			last = r.Efficiency
		}
	}
	b.ReportMetric(100*hmc.BandwidthEfficiency(16), "eff16B_%")
	b.ReportMetric(100*last, "eff256B_%")
	b.Logf("\n%s", Figure1Table())
}

func BenchmarkFig02ControlOverhead(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(metrics.Figure2(nil))
	}
	small := hmc.ControlBytesForVolume(1<<30, 16)
	big := hmc.ControlBytesForVolume(1<<30, 256)
	b.ReportMetric(float64(small)/float64(big), "ctl_reduction_x")
	_ = rows
	b.Logf("\n%s", Figure2Table())
}

// runAllOnce executes the full 12-benchmark × 3-architecture sweep.
func runAllOnce(b *testing.B) []BenchmarkRun {
	b.Helper()
	runs, err := RunAllContext(context.Background(), benchParams(), SweepOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return runs
}

func BenchmarkFig08CoalescingEfficiency(b *testing.B) {
	var runs []BenchmarkRun
	for i := 0; i < b.N; i++ {
		runs = runAllOnce(b)
	}
	var mshr, dmc, two float64
	for _, r := range runs {
		mshr += r.Baseline.CoalescingEfficiency()
		dmc += r.DMCOnly.CoalescingEfficiency()
		two += r.TwoPhase.CoalescingEfficiency()
	}
	n := float64(len(runs))
	b.ReportMetric(100*mshr/n, "avg_mshr_%")
	b.ReportMetric(100*dmc/n, "avg_dmc_%")
	b.ReportMetric(100*two/n, "avg_two_phase_%")
	b.Logf("paper: MSHR 31.53%%, DMC 38.13%%, two-phase 47.47%%\n%s", Figure8Table(runs))
}

func BenchmarkFig09BandwidthEfficiency(b *testing.B) {
	var runs []BenchmarkRun
	for i := 0; i < b.N; i++ {
		runs = runAllOnce(b)
	}
	var raw, coal float64
	for _, r := range runs {
		raw += r.Payload.RawEfficiency()
		coal += r.Payload.CoalescedEfficiency()
	}
	n := float64(len(runs))
	b.ReportMetric(100*raw/n, "avg_raw_%")
	b.ReportMetric(100*coal/n, "avg_coalesced_%")
	b.Logf("paper: raw 7.43%%, coalesced 27.73%%\n%s", Figure9Table(runs))
}

func BenchmarkFig10HPCGDistribution(b *testing.B) {
	var run BenchmarkRun
	for i := 0; i < b.N; i++ {
		var err error
		run, err = RunBenchmark("HPCG", benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	var total, small uint64
	for size, n := range run.Payload.Hist {
		total += n
		if size == 16 {
			small += n
		}
	}
	b.ReportMetric(100*float64(small)/float64(total), "share_16B_%")
	b.Logf("paper: 40.25%% of HPCG's coalesced requests are 16 B loads\n%s", Figure10Table(run))
}

func BenchmarkFig11BandwidthSaving(b *testing.B) {
	var runs []BenchmarkRun
	for i := 0; i < b.N; i++ {
		runs = runAllOnce(b)
	}
	var sum, top int64
	topName := ""
	for _, r := range runs {
		s := r.Payload.SavedBytes()
		sum += s
		if s > top {
			top, topName = s, r.Name
		}
	}
	b.ReportMetric(float64(sum)/float64(len(runs))/1e6, "avg_saved_MB")
	b.Logf("paper: 33.25 GB average saving; LU (124.77 GB) and SP (133.82 GB) top; here %s tops\n%s",
		topName, Figure11Table(runs))
}

func BenchmarkFig12DMCLatency(b *testing.B) {
	var runs []BenchmarkRun
	for i := 0; i < b.N; i++ {
		runs = runAllOnce(b)
	}
	var sum float64
	for _, r := range runs {
		sum += r.TwoPhase.Coalescer.AvgDMCLatencyNs(r.TwoPhase.ClockGHz)
	}
	b.ReportMetric(sum/float64(len(runs)), "avg_dmc_ns")
	b.Logf("paper: 7.1 ns average, all below 9 ns\n%s", Figure12Table(runs))
}

func BenchmarkFig13CRQFillTime(b *testing.B) {
	var runs []BenchmarkRun
	for i := 0; i < b.N; i++ {
		runs = runAllOnce(b)
	}
	var sum, ft float64
	for _, r := range runs {
		ns := r.TwoPhase.Coalescer.AvgCRQFillNs(r.TwoPhase.ClockGHz)
		sum += ns
		if r.Name == "FT" {
			ft = ns
		}
	}
	b.ReportMetric(sum/float64(len(runs)), "avg_fill_ns")
	b.ReportMetric(ft, "ft_fill_ns")
	b.Logf("paper: 15.86 ns average; FT highest at 34.76 ns\n%s", Figure13Table(runs))
}

func BenchmarkFig14TimeoutSweep(b *testing.B) {
	timeouts := []uint64{16, 20, 24, 28}
	var table string
	for i := 0; i < b.N; i++ {
		var err error
		table, err = Figure14TableContext(context.Background(), benchParams(), timeouts, SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: the latency trend for one representative benchmark.
	lat, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", benchParams(), SweepOptions{}, AxisOf("timeout", timeouts))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(lat[0], "sg_T16_ns")
	b.ReportMetric(lat[len(lat)-1], "sg_T28_ns")
	b.Logf("paper: latency grows with timeout; sorting dominates by T=28\n%s", table)
}

func BenchmarkFig15Performance(b *testing.B) {
	var runs []BenchmarkRun
	for i := 0; i < b.N; i++ {
		runs = runAllOnce(b)
	}
	var sum, best float64
	bestName := ""
	for _, r := range runs {
		s := r.Speedup()
		sum += s
		if s > best {
			best, bestName = s, r.Name
		}
	}
	b.ReportMetric(100*sum/float64(len(runs)), "avg_speedup_%")
	b.ReportMetric(100*best, "best_speedup_%")
	b.Logf("paper: 13.14%% average; FT 25.43%% and SparseLU 22.21%% best; here %s best\n%s",
		bestName, Figure15Table(runs))
}

// BenchmarkSweepWorkers measures the wall-clock win of the parallel sweep
// engine on the full evaluation pipeline (12 benchmarks × 3 architectures
// + payload analyses) at the CLI's default -ops 4000 scale:
//
//	go test -bench=SweepWorkers -benchtime=1x
//
// workers1 is the old strictly serial pipeline; workersN uses every core.
func BenchmarkSweepWorkers(b *testing.B) {
	p := TraceParams{CPUs: 12, OpsPerCPU: 4000, Seed: 3}
	for _, w := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%dcpu", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runs, err := RunAllContext(context.Background(), p, SweepOptions{Workers: w.workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(runs) != len(Benchmarks()) {
					b.Fatalf("sweep returned %d runs", len(runs))
				}
			}
		})
	}
}

// --- Ablations of DESIGN.md design choices ---

// BenchmarkAblationPipelineDepth compares the 10-stage (per-step) and
// 4-stage (per-stage) sorting pipelines of §4.1: hardware cost vs latency.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	for _, fold := range []struct {
		name string
		fold sortnet.Fold
	}{{"PerStep10", sortnet.PerStep}, {"PerStage4", sortnet.PerStage}} {
		b.Run(fold.name, func(b *testing.B) {
			accs, err := GenerateTrace("FT", benchParams())
			if err != nil {
				b.Fatal(err)
			}
			var res Result
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Coalescer.Fold = fold.fold
				sys, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = sys.Run(accs)
				if err != nil {
					b.Fatal(err)
				}
			}
			net := sortnet.MustNew(16)
			pipe, _ := sortnet.NewPipeline(net, fold.fold, 0)
			b.ReportMetric(float64(pipe.Buffers()), "buffers")
			b.ReportMetric(float64(pipe.ComparatorCost()), "comparators")
			b.ReportMetric(res.Coalescer.AvgRequestLatencyNs(res.ClockGHz), "req_latency_ns")
		})
	}
}

// BenchmarkAblationSequenceWidth sweeps the sorter width n.
func BenchmarkAblationSequenceWidth(b *testing.B) {
	for _, width := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n%d", width), func(b *testing.B) {
			accs, err := GenerateTrace("FT", benchParams())
			if err != nil {
				b.Fatal(err)
			}
			var res Result
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Coalescer.Width = width
				sys, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = sys.Run(accs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.CoalescingEfficiency(), "coal_eff_%")
			b.ReportMetric(res.Coalescer.AvgRequestLatencyNs(res.ClockGHz), "req_latency_ns")
		})
	}
}

// BenchmarkAblationBypass toggles the §4.2 stage-select idle bypass on the
// light-traffic EP workload, where it matters most.
func BenchmarkAblationBypass(b *testing.B) {
	for _, bypass := range []bool{true, false} {
		b.Run(fmt.Sprintf("bypass=%v", bypass), func(b *testing.B) {
			accs, err := GenerateTrace("EP", benchParams())
			if err != nil {
				b.Fatal(err)
			}
			var res Result
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Coalescer.Bypass = bypass
				sys, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = sys.Run(accs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Coalescer.AvgRequestLatencyNs(res.ClockGHz), "req_latency_ns")
			b.ReportMetric(float64(res.Coalescer.Bypassed), "bypassed")
		})
	}
}

// BenchmarkAblationBigCacheLine evaluates the §2.2.3 strawman: 256 B cache
// lines instead of coalescing. Every miss moves a full 256 B packet, so
// sparse workloads waste most of the bandwidth.
func BenchmarkAblationBigCacheLine(b *testing.B) {
	run := func(b *testing.B, lineBytes uint32) Result {
		b.Helper()
		accs, err := GenerateTrace("HPCG", benchParams())
		if err != nil {
			b.Fatal(err)
		}
		var res Result
		for i := 0; i < b.N; i++ {
			cfg := DefaultConfig()
			if lineBytes != 64 {
				for _, c := range []*uint32{
					&cfg.Hierarchy.L1.LineBytes, &cfg.Hierarchy.L2.LineBytes,
					&cfg.Hierarchy.LLC.LineBytes, &cfg.Coalescer.LineBytes,
				} {
					*c = lineBytes
				}
				cfg.Mode = ModeBaseline // no coalescer: the strawman
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err = sys.Run(accs)
			if err != nil {
				b.Fatal(err)
			}
		}
		return res
	}
	b.Run("coalescer64B", func(b *testing.B) {
		res := run(b, 64)
		b.ReportMetric(100*res.CoalescedBandwidthEfficiency(), "bw_eff_%")
		b.ReportMetric(float64(res.HMC.TransferredBytes)/1e6, "transferred_MB")
	})
	b.Run("bigline256B", func(b *testing.B) {
		res := run(b, 256)
		b.ReportMetric(100*res.CoalescedBandwidthEfficiency(), "bw_eff_%")
		b.ReportMetric(float64(res.HMC.TransferredBytes)/1e6, "transferred_MB")
	})
}

// BenchmarkSortNetwork measures the raw software cost of one 16-wide
// odd–even mergesort pass, for profiling the simulator itself.
func BenchmarkSortNetwork(b *testing.B) {
	net := sortnet.MustNew(16)
	keys := make([]uint64, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = uint64(j*2654435761) % 97
		}
		net.Sort(keys, nil)
	}
}

// BenchmarkAblationPagePolicy compares the HMC's closed-page policy (the
// §2.2.1 assumption behind the coalescing argument) with an open-page
// controller: with rows kept open, the conventional MHA's sequential 64 B
// requests become row hits and the coalescer's advantage shrinks.
func BenchmarkAblationPagePolicy(b *testing.B) {
	for _, open := range []bool{false, true} {
		name := "closedPage"
		if open {
			name = "openPage"
		}
		b.Run(name, func(b *testing.B) {
			accs, err := GenerateTrace("STREAM", benchParams())
			if err != nil {
				b.Fatal(err)
			}
			var speedup float64
			for i := 0; i < b.N; i++ {
				var runtimes [2]uint64
				for m, mode := range []Mode{ModeBaseline, ModeTwoPhase} {
					cfg := DefaultConfig()
					cfg.HMC.OpenPage = open
					cfg.Mode = mode
					sys, err := NewSystem(cfg)
					if err != nil {
						b.Fatal(err)
					}
					res, err := sys.Run(accs)
					if err != nil {
						b.Fatal(err)
					}
					runtimes[m] = res.RuntimeCycles
				}
				speedup = 1 - float64(runtimes[1])/float64(runtimes[0])
			}
			b.ReportMetric(100*speedup, "speedup_%")
		})
	}
}

// BenchmarkAblationAdaptiveTimeout compares the fixed 24-cycle timeout with
// the §5.3.3-inspired adaptive timeout that tracks the average coalescing
// latency.
func BenchmarkAblationAdaptiveTimeout(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			accs, err := GenerateTrace("HPCG", benchParams())
			if err != nil {
				b.Fatal(err)
			}
			var res Result
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Coalescer.AdaptiveTimeout = adaptive
				sys, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = sys.Run(accs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.CoalescingEfficiency(), "coal_eff_%")
			b.ReportMetric(res.Coalescer.AvgRequestLatencyNs(res.ClockGHz), "req_latency_ns")
		})
	}
}

// BenchmarkAblationSorterAlgorithm compares the odd-even mergesort network
// the paper selects with a bitonic alternative (§3.3): equal depth, more
// comparators, and the measured software sort cost of each.
func BenchmarkAblationSorterAlgorithm(b *testing.B) {
	for _, alg := range []struct {
		name string
		net  *sortnet.Network
	}{
		{"oddEven", sortnet.MustNew(16)},
		{"bitonic", sortnet.MustNewBitonic(16)},
	} {
		b.Run(alg.name, func(b *testing.B) {
			keys := make([]uint64, 16)
			for i := 0; i < b.N; i++ {
				for j := range keys {
					keys[j] = uint64((j*2654435761 + i) % 997)
				}
				alg.net.Sort(keys, nil)
			}
			b.ReportMetric(float64(alg.net.Comparators()), "comparators")
			b.ReportMetric(float64(alg.net.Depth()), "depth")
		})
	}
}

// BenchmarkSweepMSHREntries studies how the two-phase design scales with
// the MSHR file size (and the matching CRQ depth, §3.2.2).
func BenchmarkSweepMSHREntries(b *testing.B) {
	entries := []int{8, 16, 32, 64}
	var eff []float64
	for i := 0; i < b.N; i++ {
		var err error
		eff, err = presetOut[[]float64]("mshr", "efficiency", "FT", benchParams(), SweepOptions{}, AxisOf("mshr", entries))
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, n := range entries {
		b.ReportMetric(100*eff[i], fmt.Sprintf("eff_mshr%d_%%", n))
	}
}
