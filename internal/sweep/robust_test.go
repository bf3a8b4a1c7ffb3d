package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapPanicSurfacesAsError proves a panicking job does not take the
// process down: the panic converts to a *PanicError naming the job index
// and the sweep reports it like any other failure.
func TestMapPanicSurfacesAsError(t *testing.T) {
	_, err := Map(context.Background(), 10, Options{Workers: 4},
		func(_ context.Context, i int) (int, error) {
			if i == 7 {
				panic("kaboom")
			}
			return i, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Job != 7 {
		t.Errorf("PanicError.Job = %d, want 7", pe.Job)
	}
	if pe.Value != "kaboom" {
		t.Errorf("PanicError.Value = %v, want kaboom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
	if !strings.Contains(err.Error(), "job 7") {
		t.Errorf("error does not name the job: %v", err)
	}
}

// TestMapBatchPanicNamesGroup: on a single worker that runs the grid
// in order, a panic part-way through is attributed to the job that
// panicked, not to the first job the worker ran, and the sweep survives
// to finish the jobs after it.
func TestMapBatchPanicNamesGroup(t *testing.T) {
	got, err := Map(context.Background(), 9, Options{Workers: 1, KeepGoing: true},
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("job blew up")
			}
			return i + 1, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v, want a PanicError", err)
	}
	if pe.Job != 3 {
		t.Errorf("panic attributed to job %d, want 3", pe.Job)
	}
	for i, v := range got {
		if i != 3 && v != i+1 {
			t.Errorf("result[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestMapPanicKeepGoingFinishesGrid proves the other workers keep draining
// the grid after a panic when KeepGoing is set.
func TestMapPanicKeepGoingFinishesGrid(t *testing.T) {
	var ran atomic.Int64
	got, err := Map(context.Background(), 100, Options{Workers: 4, KeepGoing: true},
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				panic(i)
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("panic not reported")
	}
	if n := ran.Load(); n != 100 {
		t.Errorf("KeepGoing ran %d/100 jobs", n)
	}
	for i, v := range got {
		if i != 3 && v != i {
			t.Errorf("result[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestMapJobTimeout proves a deliberately hung job is abandoned at the
// deadline and reported as a JobError wrapping context.DeadlineExceeded,
// while the rest of the grid completes.
func TestMapJobTimeout(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung)
	got, err := Map(context.Background(), 10, Options{
		Workers: 4, JobTimeout: 20 * time.Millisecond, KeepGoing: true,
	}, func(ctx context.Context, i int) (int, error) {
		if i == 5 {
			// Hang until the test exits, ignoring cancellation — the worst
			// kind of stuck job.
			<-hung
		}
		return i, nil
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want *JobError", err)
	}
	if je.Job != 5 {
		t.Errorf("JobError.Job = %d, want 5", je.Job)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want wrapped DeadlineExceeded", err)
	}
	for i, v := range got {
		if i != 5 && v != i {
			t.Errorf("result[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestMapErrorAggregation proves multi-failure sweeps report every
// distinct error, first one primary, instead of swallowing the rest.
func TestMapErrorAggregation(t *testing.T) {
	errA := errors.New("failure A")
	errB := errors.New("failure B")
	_, err := Map(context.Background(), 10, Options{Workers: 2, KeepGoing: true},
		func(_ context.Context, i int) (int, error) {
			switch i {
			case 2:
				return 0, errA
			case 6:
				return 0, errB
			}
			return i, nil
		})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("aggregated err = %v, want both failures joined", err)
	}
}

// TestMapCheckpointResume proves an interrupted sweep resumes from its
// JSONL checkpoint without recomputing finished jobs, and the resumed
// result slice is byte-identical to a cold run at a different worker count.
func TestMapCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	const n = 40
	boom := errors.New("interrupted")
	fn := func(fail bool, ran *atomic.Int64) func(context.Context, int) (int, error) {
		return func(_ context.Context, i int) (int, error) {
			if ran != nil {
				ran.Add(1)
			}
			if fail && i >= 20 {
				return 0, boom
			}
			return i * 3, nil
		}
	}

	// First run fails partway: some results are checkpointed.
	if _, err := Map(context.Background(), n, Options{Workers: 1, Checkpoint: path}, fn(true, nil)); !errors.Is(err, boom) {
		t.Fatalf("interrupted run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Resume completes the grid, recomputing only the missing jobs.
	var ran atomic.Int64
	resumed, err := Map(context.Background(), n, Options{Workers: 4, Checkpoint: path}, fn(false, &ran))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if r := ran.Load(); r >= n {
		t.Errorf("resume recomputed everything: %d jobs ran", r)
	}

	cold, err := Map(context.Background(), n, Options{Workers: 3}, fn(false, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, cold) {
		t.Fatalf("resumed results differ from cold run:\n%v\nvs\n%v", resumed, cold)
	}

	// A fully checkpointed grid runs zero jobs.
	ran.Store(0)
	again, err := Map(context.Background(), n, Options{Workers: 2, Checkpoint: path}, fn(false, &ran))
	if err != nil {
		t.Fatal(err)
	}
	if r := ran.Load(); r != 0 {
		t.Errorf("complete checkpoint still ran %d jobs", r)
	}
	if !reflect.DeepEqual(again, cold) {
		t.Fatal("fully restored results differ from cold run")
	}
}

// TestMapCheckpointSkipsForeignAndTruncatedLines proves restore tolerates
// a checkpoint from a different grid size and a crash-truncated tail.
func TestMapCheckpointSkipsForeignAndTruncatedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	content := `{"job":0,"n":99,"result":7}
{"job":1,"n":4,"result":11}
{"job":2,"n":4,"result":22}
{"job":3,"n":4,"resu`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	got, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: path},
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			return i * 11, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 11, 22, 33}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Jobs 1 and 2 restored; 0 (foreign n) and 3 (truncated) recomputed.
	if r := ran.Load(); r != 2 {
		t.Errorf("ran %d jobs, want 2", r)
	}
}

// TestMapCheckpointProgressCountsRestored proves progress stays strictly
// increasing through a resume, restored jobs reported up front.
func TestMapCheckpointProgressCountsRestored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	const n = 10
	if _, err := Map(context.Background(), n, Options{Workers: 1, Checkpoint: path},
		func(_ context.Context, i int) (int, error) {
			if i >= 6 {
				return 0, fmt.Errorf("stop")
			}
			return i, nil
		}); err == nil {
		t.Fatal("expected interruption")
	}
	var seen []int
	if _, err := Map(context.Background(), n, Options{Workers: 1, Checkpoint: path,
		Progress: func(done, total int) { seen = append(seen, done) },
	}, func(_ context.Context, i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || seen[0] != 6 || seen[len(seen)-1] != n {
		t.Fatalf("progress sequence %v, want first=6 last=%d", seen, n)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] != seen[i-1]+1 {
			t.Fatalf("progress not strictly increasing: %v", seen)
		}
	}
}

// TestMapCheckpointBackendTag proves tagged checkpoint lines (here, one
// tag per memory backend) only restore into a sweep with the same tag,
// and untagged lines only into untagged sweeps.
func TestMapCheckpointBackendTag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	content := `{"job":0,"n":4,"result":100}
{"job":1,"n":4,"tag":"ddr","result":200}
{"job":2,"n":4,"tag":"ideal","result":300}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := func(_ context.Context, i int) (int, error) { return i, nil }

	// Untagged sweep: only the untagged line restores.
	got, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: path}, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{100, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("untagged sweep got %v, want %v", got, want)
	}

	// ddr-tagged sweep against the same file: only the ddr line restores;
	// the untagged and ideal lines are foreign.
	got, err = Map(context.Background(), 4, Options{Workers: 1, Checkpoint: path, Tag: "ddr"}, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 200, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ddr sweep got %v, want %v", got, want)
	}

	// A tagged sweep writes tagged lines and resumes from its own output.
	tagged := filepath.Join(t.TempDir(), "tagged.jsonl")
	if _, err := Map(context.Background(), 3, Options{Workers: 1, Checkpoint: tagged, Tag: "ideal"},
		func(_ context.Context, i int) (int, error) { return i * 7, nil }); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	got, err = Map(context.Background(), 3, Options{Workers: 1, Checkpoint: tagged, Tag: "ideal"},
		func(_ context.Context, i int) (int, error) { ran.Add(1); return i * 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 7, 14}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ideal resume got %v, want %v", got, want)
	}
	if r := ran.Load(); r != 0 {
		t.Errorf("tagged resume recomputed %d jobs", r)
	}
	// An untagged sweep must not consume the tagged checkpoint.
	ran.Store(0)
	if _, err := Map(context.Background(), 3, Options{Workers: 1, Checkpoint: tagged},
		func(_ context.Context, i int) (int, error) { ran.Add(1); return i, nil }); err != nil {
		t.Fatal(err)
	}
	if r := ran.Load(); r != 3 {
		t.Errorf("untagged sweep restored tagged lines: only %d jobs ran", r)
	}
}

// TestRemoteAbortLeavesResumableCheckpoint is the sweep layer's half of
// the fault-tolerant distribution contract: a Remote sweep interrupted
// mid-grid (a coordinator crash, a cancelled campaign) leaves a
// checkpoint from which a second Remote sweep finishes the grid without
// re-dispatching restored jobs — and without duplicating any line, even
// though the abort's cancellation echoes through every in-flight job.
func TestRemoteAbortLeavesResumableCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "remote.jsonl")
	const n = 12

	// First pass: a "dispatcher" that completes 8 jobs, then reports the
	// transport loss a dead coordinator produces.
	var served atomic.Int64
	_, err := Map(context.Background(), n, Options{Remote: true, Workers: 1, Checkpoint: ckpt},
		func(_ context.Context, i int) (int, error) {
			if served.Add(1) > 8 {
				return 0, errors.New("dsweep: coordinator closed")
			}
			return i * i, nil
		})
	if err == nil || !strings.Contains(err.Error(), "coordinator closed") {
		t.Fatalf("aborted sweep returned %v", err)
	}

	// The checkpoint must hold exactly the completed jobs, once each.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, raw := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(raw) != "" {
			lines++
		}
	}
	if lines != 8 {
		t.Fatalf("aborted checkpoint holds %d lines, want 8", lines)
	}

	// Second pass: a healthy dispatcher sees only the remaining jobs.
	var resumed atomic.Int64
	got, err := Map(context.Background(), n, Options{Remote: true, Checkpoint: ckpt},
		func(_ context.Context, i int) (int, error) {
			resumed.Add(1)
			return i * i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if r := resumed.Load(); r != 4 {
		t.Fatalf("resume dispatched %d jobs, want 4", r)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d after resume, want %d", i, v, i*i)
		}
	}
}
