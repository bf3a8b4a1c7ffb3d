package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointFlushedOnCancellation pins the write-through contract of
// the checkpoint writer: a job that completed before the context was
// cancelled is on disk when Map returns — cancellation (or a crash
// right after it) can never lose finished work to a buffer.
func TestCheckpointFlushedOnCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 6
	completed := 0
	_, err := Map(ctx, n, Options{Workers: 1, Checkpoint: path},
		func(_ context.Context, i int) (int, error) {
			completed++
			if completed >= 4 {
				// Cancel mid-sweep, right after this job finishes: its
				// result must still reach the checkpoint.
				cancel()
			}
			return i * 11, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if completed >= n {
		t.Fatalf("sweep ran all %d jobs; cancellation never interrupted it", n)
	}

	// Every completed job must already be a durable checkpoint line.
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if lines := strings.Count(string(data), "\n"); lines != completed {
		t.Fatalf("checkpoint holds %d lines, want %d (completed jobs)", lines, completed)
	}

	// And a resumed sweep must skip exactly those jobs.
	reran := 0
	res, err := Map(context.Background(), n, Options{Workers: 1, Checkpoint: path},
		func(_ context.Context, i int) (int, error) {
			reran++
			return i * 11, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if reran != n-completed {
		t.Fatalf("resume recomputed %d jobs, want %d", reran, n-completed)
	}
	for i, v := range res {
		if v != i*11 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*11)
		}
	}
}
