package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		got, err := Map(context.Background(), 100, Options{Workers: workers},
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyGrid(t *testing.T) {
	got, err := Map(context.Background(), 0, Options{},
		func(_ context.Context, i int) (int, error) { return 0, errors.New("must not run") })
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(0 jobs) = %v, %v", got, err)
	}
}

func TestMapFirstErrorWinsAndAborts(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(context.Background(), 1000, Options{Workers: 4},
		func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, fmt.Errorf("job %d: %w", i, boom)
			}
			// Give the abort a chance to propagate before the feeder can
			// push the whole grid through.
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("abort did not stop the sweep: %d jobs ran", n)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	go func() {
		for ran.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	_, err := Map(ctx, 10000, Options{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Microsecond):
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Errorf("cancellation did not stop the sweep: %d jobs ran", n)
	}
}

func TestMapProgressSerializedAndComplete(t *testing.T) {
	const n = 50
	var seen []int
	got, err := Map(context.Background(), n, Options{
		Workers:  8,
		Progress: func(done, total int) { seen = append(seen, done) }, // serialized by contract
	}, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || len(seen) != n {
		t.Fatalf("results/progress = %d/%d, want %d/%d", len(got), len(seen), n, n)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress[%d] = %d, want %d (strictly increasing)", i, d, i+1)
		}
	}
}

// TestMapBatchProgressPerJob: however many workers drain the grid,
// progress ticks once per job in +1 steps with the grid size as its
// total — never once per batch of jobs a worker has finished.
func TestMapBatchProgressPerJob(t *testing.T) {
	const n = 10
	for _, workers := range []int{1, 4} {
		var last, calls int
		_, err := Map(context.Background(), n, Options{
			Workers: workers,
			Progress: func(done, total int) { // serialized by contract
				if done != last+1 {
					t.Errorf("workers=%d: progress jumped from %d to %d", workers, last, done)
				}
				if total != n {
					t.Errorf("workers=%d: progress total %d, want %d", workers, total, n)
				}
				last = done
				calls++
			},
		}, func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if calls != n {
			t.Errorf("workers=%d: progress called %d times, want %d", workers, calls, n)
		}
	}
}

func TestOptionsWorkerResolution(t *testing.T) {
	cases := []struct {
		workers, jobs, wantMax int
	}{
		{0, 100, 1 << 20}, // GOMAXPROCS, just has to be ≥ 1
		{1, 100, 1},
		{8, 3, 3}, // clamped to the grid size
	}
	for _, c := range cases {
		got := Options{Workers: c.workers}.workers(c.jobs)
		if got < 1 || got > c.wantMax {
			t.Errorf("Options{Workers:%d}.workers(%d) = %d", c.workers, c.jobs, got)
		}
	}
}
