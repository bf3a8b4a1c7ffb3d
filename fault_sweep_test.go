package hmccoal

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestFaultSweepDeterminism is the fault tentpole's acceptance contract:
// with ber > 0, two sweeps with the same seed are byte-identical at any
// worker count — fault decisions are keyed by (seed, link, packet serial),
// never by scheduling order.
func TestFaultSweepDeterminism(t *testing.T) {
	p := sweepTestParams()
	bers := []float64{0, 1e-5}
	serial, err := FaultSweepContext(context.Background(), "STREAM", p, 7, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(bers) {
		t.Fatalf("%d rows, want %d", len(serial), len(bers))
	}
	for _, workers := range []int{0, 3} {
		parallel, err := FaultSweepContext(context.Background(), "STREAM", p, 7, bers, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		a, _ := json.Marshal(serial)
		b, _ := json.Marshal(parallel)
		if string(a) != string(b) {
			t.Fatalf("workers=%d: fault sweep differs from serial run", workers)
		}
	}
}

// TestFaultSweepDegradesWithBER: higher injected error rates must cost
// bandwidth efficiency, and the clean row must match a run with fault
// injection never configured at all.
func TestFaultSweepDegradesWithBER(t *testing.T) {
	p := sweepTestParams()
	rows, err := FaultSweepContext(context.Background(), "STREAM", p, 11, []float64{0, 1e-4}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, faulty := rows[0], rows[1]
	if clean.TwoPhase.FaultsObserved() {
		t.Error("BER=0 row observed faults")
	}
	if !faulty.TwoPhase.FaultsObserved() {
		t.Error("BER=1e-4 row observed no faults")
	}
	if faulty.TwoPhase.HMC.BandwidthEfficiency() >= clean.TwoPhase.HMC.BandwidthEfficiency() {
		t.Errorf("bandwidth efficiency did not degrade: %.4f >= %.4f",
			faulty.TwoPhase.HMC.BandwidthEfficiency(), clean.TwoPhase.HMC.BandwidthEfficiency())
	}

	// The BER=0 row must be indistinguishable from a never-faulted system.
	accs, err := GenerateTrace("STREAM", p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := runMode("STREAM", ModeTwoPhase, DefaultConfig(), accs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Summary() != clean.TwoPhase.Summary() {
		t.Error("BER=0 sweep row differs from a run without fault injection")
	}

	table := FaultSweepTable(rows)
	for _, want := range []string{"BER", "speedup", "retries", "poisoned", "degraded", "two-phase"} {
		if !strings.Contains(table, want) {
			t.Errorf("FaultSweepTable missing %q:\n%s", want, table)
		}
	}
}

// TestFigureTablesEmptyRuns: every figure renderer must survive an empty
// run set (a sweep that produced nothing) without dividing by zero.
func TestFigureTablesEmptyRuns(t *testing.T) {
	var runs []BenchmarkRun
	for name, render := range map[string]func([]BenchmarkRun) string{
		"Figure8Table":  Figure8Table,
		"Figure9Table":  Figure9Table,
		"Figure11Table": Figure11Table,
		"Figure12Table": Figure12Table,
		"Figure13Table": Figure13Table,
		"Figure15Table": Figure15Table,
	} {
		out := render(runs)
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s renders NaN/Inf on empty runs:\n%s", name, out)
		}
	}
	// Zero completed requests: averages must not be NaN either.
	runs = []BenchmarkRun{{Name: "empty"}}
	for name, render := range map[string]func([]BenchmarkRun) string{
		"Figure8Table":  Figure8Table,
		"Figure9Table":  Figure9Table,
		"Figure15Table": Figure15Table,
	} {
		out := render(runs)
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s renders NaN/Inf for a zero-request run:\n%s", name, out)
		}
	}
	if out := Figure10Table(BenchmarkRun{}); strings.Contains(out, "NaN") {
		t.Errorf("Figure10Table renders NaN for an empty histogram:\n%s", out)
	}
	if out := PacketSizeTable(Result{}); strings.Contains(out, "NaN") {
		t.Errorf("PacketSizeTable renders NaN for an empty run:\n%s", out)
	}
	if out := FaultSweepTable(nil); !strings.Contains(out, "BER") {
		t.Errorf("FaultSweepTable broken on empty rows:\n%s", out)
	}
}
