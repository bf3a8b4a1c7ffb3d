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
	ctx := context.Background()
	entries := []int{8, 16}
	p1 := TraceParams{CPUs: 2, OpsPerCPU: 150, Seed: 1}
	p2 := p1
	p2.Seed = 2
	ckpt := filepath.Join(t.TempDir(), "mshr.ckpt")
	opt := SweepOptions{Workers: 1, Checkpoint: ckpt}

	seed1, err := MSHRSweepContext(ctx, "FT", p1, entries, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := MSHRSweepContext(ctx, "FT", p2, entries, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(seed1, cold) {
		t.Fatal("seeds 1 and 2 give identical results; the test cannot tell them apart")
	}

	before := ckptLines(t, ckpt)
	got, err := MSHRSweepContext(ctx, "FT", p2, entries, opt)
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

// failDispatcher fails any group it is handed: a fully restored sweep
// must never dispatch.
type failDispatcher struct{ t *testing.T }

func (d failDispatcher) RunGroup(context.Context, []byte, []int) ([]json.RawMessage, error) {
	d.t.Error("a fully checkpointed sweep dispatched a group")
	return nil, errors.New("unexpected dispatch")
}

// TestCheckpointFingerprintIgnoresExecutionKnobs pins the other side of
// the fingerprint: knobs that cannot change a result — Batch, Checks,
// Workers, distributed dispatch — do not change a grid's identity, so a
// checkpoint written under one setting restores every job under any
// other with zero recompute.
func TestCheckpointFingerprintIgnoresExecutionKnobs(t *testing.T) {
	ctx := context.Background()
	entries := []int{8, 16, 32}
	p := sweepTestParams()
	ckpt := filepath.Join(t.TempDir(), "mshr.ckpt")
	want, err := MSHRSweepContext(ctx, "FT", p, entries, SweepOptions{Workers: 1, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	size := ckptSize(t, ckpt)
	for name, opt := range map[string]SweepOptions{
		"batch":    {Workers: 1, Batch: 4},
		"checks":   {Workers: 1, Checks: true},
		"workers":  {Workers: 3},
		"dispatch": {Workers: 2, Dispatch: failDispatcher{t}},
	} {
		opt.Checkpoint = ckpt
		got, err := MSHRSweepContext(ctx, "FT", p, entries, opt)
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
	ctx := context.Background()
	p := TraceParams{CPUs: 2, OpsPerCPU: 60, Seed: 3}
	ckpt := filepath.Join(t.TempDir(), "stride.ckpt")
	want, err := StrideLadderContext(ctx, p, SweepOptions{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	size := ckptSize(t, ckpt)
	got, err := StrideLadderContext(ctx, p, SweepOptions{Checkpoint: ckpt, Frontend: FrontendWarp, Sched: SchedHetero})
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
