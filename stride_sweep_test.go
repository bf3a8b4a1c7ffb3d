package hmccoal

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hmccoal/internal/dsweep"
	"hmccoal/internal/workloads"
)

// TestStrideLadderDeterminism is the new grid's acceptance contract: the
// (stride × {front-end × scheduler}) sweep produces byte-identical results
// at any worker count and under distributed dispatch to remote workers.
func TestStrideLadderDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()

	serial, err := presetOut[[]StrideRun]("stride", "runs", "", p, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(serial)

	parallel, err := presetOut[[]StrideRun]("stride", "runs", "", p, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(parallel); !bytes.Equal(want, got) {
		t.Fatal("workers=4 stride ladder differs from serial")
	}

	coord, addr := startTestCoordinator(t, dsweep.Options{})
	startTestWorkers(t, addr, 2)
	dist, err := presetOut[[]StrideRun]("stride", "runs", "", p, SweepOptions{Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(dist); !bytes.Equal(want, got) {
		t.Fatal("distributed stride ladder differs from serial")
	}

	// Shape and physics: one run per rung in ladder order, every front-end
	// coalescing on the adjacent-line rung, none past the cliff (the
	// coalescer never fetches hole lines, so stride ≥ 4 cannot merge).
	names := workloads.StrideNames()
	if len(serial) != len(names) {
		t.Fatalf("ladder has %d runs, want %d", len(serial), len(names))
	}
	for i, r := range serial {
		if r.Name != names[i] {
			t.Errorf("run %d named %q, want %q", i, r.Name, names[i])
		}
	}
	for k := range serial[0].Results {
		if eff := serial[0].Results[k].CoalescingEfficiency(); eff <= 0 {
			t.Errorf("stride1 combo %d coalescing efficiency = %v, want > 0", k, eff)
		}
		if eff := serial[len(serial)-1].Results[k].CoalescingEfficiency(); eff != 0 {
			t.Errorf("stride32 combo %d coalescing efficiency = %v, want 0 past the cliff", k, eff)
		}
	}

	table := StrideLadderTable(serial)
	for _, col := range []string{"two-phase/frfcfs", "two-phase/hetero", "warp/frfcfs", "warp/hetero"} {
		if !strings.Contains(table, col) {
			t.Errorf("stride table is missing column %q:\n%s", col, table)
		}
	}
	for _, name := range names {
		if !strings.Contains(table, name) {
			t.Errorf("stride table is missing rung %q:\n%s", name, table)
		}
	}
}

// TestSweepOptionsFrontend checks that the Frontend/Sched sweep options
// reach the simulations: a warp-front-end timeout sweep is deterministic
// and measurably different from the default two-phase sweep.
func TestSweepOptionsFrontend(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	timeouts := []uint64{16, 28}
	warpOpt := SweepOptions{Workers: 1, Variant: Variant{Frontend: FrontendWarp, Sched: SchedHetero}}

	def, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, SweepOptions{Workers: 1}, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	warp, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, warpOpt, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	again, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, warpOpt, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(warp)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatal("warp timeout sweep is not deterministic")
	}
	if d, _ := json.Marshal(def); bytes.Equal(a, d) {
		t.Fatal("warp/hetero timeout sweep is byte-identical to the two-phase default — the options are not reaching the simulations")
	}
}

// TestSweepSpecFrontendValidation pins the spec layer's rejection of
// unknown front-end and scheduler names — the error a dsweep worker
// returns instead of panicking on a malformed wire spec.
func TestSweepSpecFrontendValidation(t *testing.T) {
	for _, spec := range []string{
		`{"benches":["SG"],"axes":[{"name":"timeout","values":["16"]}],"frontend":"gpu"}`,
		`{"benches":["SG"],"axes":[{"name":"timeout","values":["16"]}],"sched":"lifo"}`,
	} {
		if _, err := NewSweepRunner().RunGroup(context.Background(), []byte(spec), []int{0}); err == nil {
			t.Errorf("spec %s accepted", spec)
		} else if !strings.Contains(err.Error(), "sweep spec") {
			t.Errorf("spec %s error %q does not name the sweep spec", spec, err)
		}
	}
}
