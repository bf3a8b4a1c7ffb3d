package hmccoal

// The determinism contract behind every hot-path optimization: for a fixed
// seed trace, the simulator's Result — rendered through Summary() plus the
// raw counters — must stay byte-identical across all three miss-handling
// architectures, the hetero scheduler and the warp front-end, on regular
// (HPCG, FT) and irregular (SSCA2, CG) traces. Regenerate
// with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenMetrics

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const goldenPath = "testdata/golden_metrics.txt"

// renderGoldenMetrics runs the fixed workloads under every architecture,
// then under the hetero scheduler and the warp front-end, and renders
// everything the figures depend on.
func renderGoldenMetrics(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	benches := []string{"HPCG", "FT"}
	traces := make([][]Access, len(benches))
	for i, bench := range benches {
		accs, err := GenerateTrace(bench, TraceParams{CPUs: 12, OpsPerCPU: 900, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = accs
		for _, mode := range []Mode{ModeBaseline, ModeDMCOnly, ModeTwoPhase} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			writeGoldenSection(t, &b, fmt.Sprintf("%s/%v", bench, mode), cfg, accs)
		}
	}
	fronts := []struct {
		fe    FrontendKind
		sched SchedKind
	}{
		{FrontendTwoPhase, SchedHetero},
		{FrontendWarp, SchedFRFCFS},
		{FrontendWarp, SchedHetero},
	}
	for i, bench := range benches {
		for _, f := range fronts {
			cfg := DefaultConfig()
			cfg.Frontend, cfg.Sched = f.fe, f.sched
			writeGoldenSection(t, &b, fmt.Sprintf("%s/%v/%v", bench, f.fe, f.sched), cfg, traces[i])
		}
	}
	// The irregular benchmarks keep the MSHR file packed, so they pin the
	// blocked-CRQ-head path that HPCG and FT rarely reach.
	for _, bench := range []string{"SSCA2", "CG"} {
		accs, err := GenerateTrace(bench, TraceParams{CPUs: 12, OpsPerCPU: 900, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Mode = ModeBaseline
		writeGoldenSection(t, &b, fmt.Sprintf("%s/%v", bench, cfg.Mode), cfg, accs)
		for _, fe := range []FrontendKind{FrontendTwoPhase, FrontendWarp} {
			cfg := DefaultConfig()
			cfg.Frontend, cfg.Sched = fe, SchedFRFCFS
			writeGoldenSection(t, &b, fmt.Sprintf("%s/%v/%v", bench, cfg.Frontend, cfg.Sched), cfg, accs)
		}
	}
	// The flat timing models: one regular and one irregular trace behind
	// each front-end, so the ddr bank/bus and ideal service paths are held
	// to the same bytes as the HMC's.
	for _, bench := range []string{"HPCG", "SSCA2"} {
		accs, err := GenerateTrace(bench, TraceParams{CPUs: 12, OpsPerCPU: 900, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range []BackendKind{BackendDDR, BackendIdeal} {
			for _, fe := range []FrontendKind{FrontendTwoPhase, FrontendWarp} {
				cfg := DefaultConfig()
				cfg.Backend, cfg.Frontend = be, fe
				writeGoldenSection(t, &b, fmt.Sprintf("%s/%v/%v", bench, be, fe), cfg, accs)
			}
		}
	}
	return b.String()
}

// writeGoldenSection runs one configuration over accs and renders its
// Summary plus the raw counters under a "=== name ===" header.
func writeGoldenSection(t *testing.T, b *strings.Builder, name string, cfg Config, accs []Access) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "=== %s ===\n%s", name, res.Summary())
	fmt.Fprintf(b, "RuntimeCycles=%d LLCMisses=%d HMCRequests=%d StallCycles=%d\n",
		res.RuntimeCycles, res.LLCMisses, res.HMCRequests, res.StallCycles)
	fmt.Fprintf(b, "MSHR allocs=%d merged=%d split=%d stalls=%d\n",
		res.MSHR.Allocations, res.MSHR.MergedTargets, res.MSHR.SplitRequests, res.MSHR.FullStalls)
	fmt.Fprintf(b, "L1=%+v\nL2=%+v\nLLC=%+v\n", res.L1, res.L2, res.LLC)
	fmt.Fprintf(b, "HMC reads=%d writes=%d packet=%d requested=%d transferred=%d rowact=%d conflicts=%d conflictwait=%d\n",
		res.HMC.Reads, res.HMC.Writes, res.HMC.PacketBytes, res.HMC.RequestedBytes,
		res.HMC.TransferredBytes, res.HMC.RowActivations, res.HMC.BankConflicts, res.HMC.ConflictWait)
	fmt.Fprintf(b, "Coal batches=%d batchreqs=%d sort=%d dmc=%d lat=%d/%d peak=%d fills=%d fillcycles=%d\n",
		res.Coalescer.Batches, res.Coalescer.BatchRequests, res.Coalescer.SortCycles,
		res.Coalescer.DMCCycles, res.Coalescer.RequestLatency, res.Coalescer.LatencySamples,
		res.Coalescer.CRQPeak, res.Coalescer.CRQFills, res.Coalescer.CRQFillCycles)
}

// TestGoldenMetrics locks the byte-identical-output contract. Any
// optimization that shifts a single counter or a single formatted byte of
// Summary() fails here.
func TestGoldenMetrics(t *testing.T) {
	got := renderGoldenMetrics(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden metrics drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenRepeatable guards run-to-run determinism within one binary: two
// fresh systems over the same trace must agree exactly.
func TestGoldenRepeatable(t *testing.T) {
	a := renderGoldenMetrics(t)
	b := renderGoldenMetrics(t)
	if a != b {
		t.Error("two identical runs produced different metrics")
	}
}
