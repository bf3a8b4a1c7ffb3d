package sweep

import (
	"context"
	"path/filepath"
	"testing"
)

// runTagged runs a 4-job sweep against path with the given tag and
// returns how many jobs actually recomputed (were not restored).
func runTagged(t *testing.T, path, tag string) int {
	t.Helper()
	calls := 0
	got, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: path, Tag: tag},
		func(_ context.Context, i int) (int, error) { calls++; return i + 100, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+100 {
			t.Fatalf("job %d = %d, want %d", i, v, i+100)
		}
	}
	return calls
}

// TestCheckpointFrontendTags pins the single-tag contract: a sweep resumes
// only from checkpoint lines carrying exactly its own Tag — whatever axis
// the tags encode (here front-end/scheduler combinations) — and every tag
// sharing one file still restores its own lines with zero recompute.
func TestCheckpointFrontendTags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	if got := runTagged(t, path, "warp/hetero"); got != 4 {
		t.Fatalf("cold warp/hetero sweep ran %d jobs, want 4", got)
	}
	if got := runTagged(t, path, "warp/hetero"); got != 0 {
		t.Errorf("warp/hetero resume recomputed %d jobs, want 0", got)
	}

	// Any other tag, including the empty one, must skip every warp/hetero
	// line and recompute the full grid.
	others := []string{"warp/frfcfs", "two-phase/hetero", ""}
	for _, tag := range others {
		if got := runTagged(t, path, tag); got != 4 {
			t.Errorf("sweep tagged %q restored foreign lines: ran %d jobs, want 4", tag, got)
		}
	}

	// Those runs appended their own lines behind the warp ones; each tag
	// now resumes from its own results, still zero recompute.
	for _, tag := range append(others, "warp/hetero") {
		if got := runTagged(t, path, tag); got != 0 {
			t.Errorf("resume tagged %q recomputed %d jobs, want 0", tag, got)
		}
	}
}
