package hmccoal

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ckptSize returns a checkpoint's length in bytes; every recomputed job
// appends a line, so an unchanged size means nothing was recomputed.
func ckptSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// ckptLines counts a checkpoint's lines.
func ckptLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	return n
}

// TestCheckpointFingerprintCoversTraceParams pins that a sweep's
// checkpoint identity covers its trace parameters: a seed-2 MSHR sweep
// over a seed-1 checkpoint restores nothing, recomputes every job, and
// equals a cold seed-2 run.
func TestCheckpointFingerprintCoversTraceParams(t *testing.T) {
	entries := []int{8, 16}
	p1 := TraceParams{CPUs: 2, OpsPerCPU: 150, Seed: 1}
	p2 := p1
	p2.Seed = 2
	ckpt := filepath.Join(t.TempDir(), "mshr.ckpt")
	opt := SweepOptions{Workers: 1, Checkpoint: ckpt}

	seed1, err := presetOut[[]float64]("mshr", "efficiency", "FT", p1, opt, AxisOf("mshr", entries))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := presetOut[[]float64]("mshr", "efficiency", "FT", p2, SweepOptions{Workers: 1}, AxisOf("mshr", entries))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(seed1, cold) {
		t.Fatal("seeds 1 and 2 give identical results; the test cannot tell them apart")
	}

	before := ckptLines(t, ckpt)
	got, err := presetOut[[]float64]("mshr", "efficiency", "FT", p2, opt, AxisOf("mshr", entries))
	if err != nil {
		t.Fatal(err)
	}
	if ran := ckptLines(t, ckpt) - before; ran != len(entries) {
		t.Errorf("seed-2 sweep over a seed-1 checkpoint recomputed %d of %d jobs", ran, len(entries))
	}
	if !reflect.DeepEqual(got, cold) {
		t.Errorf("seed-2 sweep over a seed-1 checkpoint = %v, cold seed-2 run = %v", got, cold)
	}
}

// failDispatcher fails any job it is handed: a fully restored sweep must
// never dispatch.
type failDispatcher struct{ t *testing.T }

func (d failDispatcher) RunJob(context.Context, []byte, int) (json.RawMessage, error) {
	d.t.Error("a fully checkpointed sweep dispatched a job")
	return nil, errors.New("unexpected dispatch")
}

// TestCheckpointFingerprintIgnoresExecutionKnobs pins the other side of
// the fingerprint: knobs that cannot change a result — Checks, Workers,
// distributed dispatch — do not change a grid's identity, so a
// checkpoint written under one setting restores every job under any
// other with zero recompute.
func TestCheckpointFingerprintIgnoresExecutionKnobs(t *testing.T) {
	entries := []int{8, 16, 32}
	p := sweepTestParams()
	ckpt := filepath.Join(t.TempDir(), "mshr.ckpt")
	want, err := presetOut[[]float64]("mshr", "efficiency", "FT", p, SweepOptions{Workers: 1, Checkpoint: ckpt}, AxisOf("mshr", entries))
	if err != nil {
		t.Fatal(err)
	}
	size := ckptSize(t, ckpt)
	for name, opt := range map[string]SweepOptions{
		"checks":   {Workers: 1, Checks: true},
		"workers":  {Workers: 3},
		"dispatch": {Workers: 2, Dispatch: failDispatcher{t}},
	} {
		opt.Checkpoint = ckpt
		got, err := presetOut[[]float64]("mshr", "efficiency", "FT", p, opt, AxisOf("mshr", entries))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: restored %v, want %v", name, got, want)
		}
		if s := ckptSize(t, ckpt); s != size {
			t.Errorf("%s: checkpoint grew from %d to %d bytes: jobs were recomputed", name, size, s)
			size = s
		}
	}
}

// TestStrideCheckpointIgnoresFrontendOptions pins that the stride grid,
// which sweeps the front-end and scheduler axes itself, keeps one
// identity whatever Frontend/Sched options it is called with.
func TestStrideCheckpointIgnoresFrontendOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("stride ladder sweep")
	}
	p := TraceParams{CPUs: 2, OpsPerCPU: 60, Seed: 3}
	ckpt := filepath.Join(t.TempDir(), "stride.ckpt")
	want, err := presetOut[[]StrideRun]("stride", "runs", "", p, SweepOptions{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	size := ckptSize(t, ckpt)
	got, err := presetOut[[]StrideRun]("stride", "runs", "", p, SweepOptions{Checkpoint: ckpt, Variant: Variant{Frontend: FrontendWarp, Sched: SchedHetero}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("warp/hetero options changed the stride ladder's restored results")
	}
	if s := ckptSize(t, ckpt); s != size {
		t.Errorf("checkpoint grew from %d to %d bytes: stride jobs were recomputed", size, s)
	}
}

// TestFingerprintsStable pins preset fingerprints as the batch engine's
// checkpoints carried them: its Batch width never entered the hash, so
// removing the field leaves every fingerprint — and every checkpoint
// written before — unchanged.
func TestFingerprintsStable(t *testing.T) {
	for name, want := range map[string]string{
		"runall": "50f1670904193d89",
		"fig14":  "d08eba91b9c023b2",
		"fault":  "a6051b5e84bd6fa0",
	} {
		pr, err := LookupPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pr.Spec("STREAM", DefaultTraceParams(), SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.fingerprint(); err != nil || got != want {
			t.Errorf("%s fingerprint %s (err %v), want %s", name, got, err, want)
		}
	}
}

// TestBatchedCheckpointRestores resumes from testdata/batch2_fault.ckpt,
// the checkpoint of a STREAM fault sweep (bers 0 and 1e-5) that the batch
// engine wrote at -batch 2: every job restores, none is recomputed, and
// the rows equal a cold run's.
func TestBatchedCheckpointRestores(t *testing.T) {
	p := sweepTestParams()
	bers := []float64{0, 1e-5}
	raw, err := os.ReadFile(filepath.Join("testdata", "batch2_fault.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "fault.ckpt")
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := FaultSweepContext(context.Background(), "STREAM", p, 3, bers,
		SweepOptions{Workers: 1, Checkpoint: ckpt, Dispatch: failDispatcher{t}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FaultSweepContext(context.Background(), "STREAM", p, 3, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("rows restored from the -batch 2 checkpoint differ from a cold run")
	}
	if s := ckptSize(t, ckpt); s != int64(len(raw)) {
		t.Errorf("checkpoint grew from %d to %d bytes: jobs were recomputed", len(raw), s)
	}
}
