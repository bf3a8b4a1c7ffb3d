package hmccoal

import (
	"strings"
	"testing"
)

func smallTraceParams() TraceParams {
	return TraceParams{CPUs: 4, OpsPerCPU: 800, Seed: 5}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 12 {
		t.Fatalf("Benchmarks() = %d names, want 12", len(names))
	}
	for _, n := range names {
		desc, err := DescribeBenchmark(n)
		if err != nil || desc == "" {
			t.Errorf("DescribeBenchmark(%s) = %q, %v", n, desc, err)
		}
	}
	if _, err := DescribeBenchmark("nope"); err == nil {
		t.Error("unknown benchmark described")
	}
}

func TestGenerateTraceUnknown(t *testing.T) {
	if _, err := GenerateTrace("nope", DefaultTraceParams()); err == nil {
		t.Fatal("unknown benchmark generated")
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	accs, err := GenerateTrace("STREAM", smallTraceParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hierarchy.CPUs = 4
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoalescingEfficiency() <= 0 {
		t.Errorf("CoalescingEfficiency = %v", res.CoalescingEfficiency())
	}
	pa, err := AnalyzePayload(cfg, accs)
	if err != nil {
		t.Fatal(err)
	}
	if pa.CoalescedEfficiency() <= pa.RawEfficiency() {
		t.Errorf("payload analysis: coalesced %v not above raw %v",
			pa.CoalescedEfficiency(), pa.RawEfficiency())
	}
}

func TestRunBenchmarkAndSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full 3-architecture run")
	}
	p := DefaultTraceParams()
	p.OpsPerCPU = 1000
	run, err := RunBenchmark("FT", p)
	if err != nil {
		t.Fatal(err)
	}
	if run.Name != "FT" {
		t.Errorf("Name = %q", run.Name)
	}
	if run.TwoPhase.CoalescingEfficiency() <= run.Baseline.CoalescingEfficiency() {
		t.Error("two-phase not above baseline")
	}
	if run.Speedup() <= 0 {
		t.Errorf("FT Speedup = %v, want positive", run.Speedup())
	}
	// The figure tables render with all benchmarks present.
	runs := []BenchmarkRun{run}
	for name, table := range map[string]string{
		"fig8":  Figure8Table(runs),
		"fig9":  Figure9Table(runs),
		"fig10": Figure10Table(run),
		"fig11": Figure11Table(runs),
		"fig12": Figure12Table(runs),
		"fig13": Figure13Table(runs),
		"fig15": Figure15Table(runs),
	} {
		if !strings.Contains(table, "FT") && name != "fig10" {
			t.Errorf("%s missing FT row:\n%s", name, table)
		}
		if table == "" {
			t.Errorf("%s empty", name)
		}
	}
}

func TestAnalyticFigureTables(t *testing.T) {
	f1 := Figure1Table()
	for _, want := range []string{"16 B", "256 B", "33.33%", "88.89%"} {
		if !strings.Contains(f1, want) {
			t.Errorf("Figure1Table missing %q:\n%s", want, f1)
		}
	}
	f2 := Figure2Table()
	if !strings.Contains(f2, "request size") {
		t.Errorf("Figure2Table malformed:\n%s", f2)
	}
}

func TestTimeoutSweepDefaultsAndTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := DefaultTraceParams()
	p.OpsPerCPU = 800
	lat, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 4 {
		t.Fatalf("default sweep has %d points, want 4", len(lat))
	}
	if lat[3] <= lat[0] {
		t.Errorf("latency did not grow with timeout: %v", lat)
	}
}

func TestModeConstantsDistinct(t *testing.T) {
	if ModeBaseline == ModeTwoPhase || ModeBaseline == ModeDMCOnly || ModeDMCOnly == ModeTwoPhase {
		t.Fatal("mode constants collide")
	}
}

func TestFigureCharts(t *testing.T) {
	if testing.Short() {
		t.Skip("full run")
	}
	p := DefaultTraceParams()
	p.OpsPerCPU = 600
	run, err := RunBenchmark("STREAM", p)
	if err != nil {
		t.Fatal(err)
	}
	runs := []BenchmarkRun{run}
	for _, chart := range []string{Figure8Chart(runs), Figure15Chart(runs)} {
		if !strings.Contains(chart, "STREAM") {
			t.Errorf("chart missing label:\n%s", chart)
		}
	}
}

func TestMSHRSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := DefaultTraceParams()
	p.OpsPerCPU = 800
	eff, err := presetOut[[]float64]("mshr", "efficiency", "FT", p, SweepOptions{}, AxisOf("mshr", []int{4, 16}))
	if err != nil {
		t.Fatal(err)
	}
	if len(eff) != 2 {
		t.Fatalf("sweep points = %d", len(eff))
	}
	for i, e := range eff {
		if e <= 0 || e >= 1 {
			t.Errorf("point %d efficiency = %v", i, e)
		}
	}
	// Defaults path.
	if _, err := presetOut[[]float64]("mshr", "efficiency", "FT", p, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := presetOut[[]float64]("mshr", "efficiency", "nope", p, SweepOptions{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
