package sweep

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointCreationIsAtomic pins the durable-creation contract: a
// sweep's checkpoint file is born via temp-file + rename, so after the
// sweep the directory holds exactly the checkpoint — no orphaned temp
// files — and the file carries every completed job.
func TestCheckpointCreationIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	if _, err := Map(context.Background(), 6, Options{Workers: 2, Checkpoint: path},
		func(_ context.Context, i int) (int, error) { return i * i, nil }); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("orphaned temp file %q left behind", e.Name())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 6 {
		t.Errorf("checkpoint holds %d lines, want 6", n)
	}
}

// TestOpenCheckpointAppendsToExisting proves opening an existing
// checkpoint never truncates it: the durable-creation path only runs for
// missing files, and resumes append behind the restored lines.
func TestOpenCheckpointAppendsToExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	calls := 0
	run := func(_ context.Context, i int) (int, error) { calls++; return i + 10, nil }

	// First pass completes half the grid by running with a grid that
	// matches, then the resume must restore those lines and only run the
	// remainder.
	if _, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: path}, run); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	got, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: path}, run)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("resume recomputed %d jobs, want 0", calls)
	}
	for i, v := range got {
		if v != i+10 {
			t.Errorf("restored job %d = %d, want %d", i, v, i+10)
		}
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != string(first) {
		t.Error("restore-only resume modified the checkpoint file")
	}
}

// TestCheckpointTornTailResumes pins torn-tail recovery: a checkpoint
// whose last append was torn by a crash (no trailing newline) costs only
// the torn job. The first resume recomputes it and the job after it; the
// second resume restores everything, because the first resume's lines
// were not glued onto the torn fragment.
func TestCheckpointTornTailResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	torn := `{"job":0,"n":3,"result":10}` + "\n" + `{"job":1,"n":3,"res`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	run := func(_ context.Context, i int) (int, error) { calls++; return i + 10, nil }
	for pass, want := range []int{2, 0} {
		calls = 0
		got, err := Map(context.Background(), 3, Options{Workers: 1, Checkpoint: path}, run)
		if err != nil {
			t.Fatal(err)
		}
		if calls != want {
			t.Errorf("resume %d recomputed %d jobs, want %d", pass+1, calls, want)
		}
		for i, v := range got {
			if v != i+10 {
				t.Errorf("resume %d: job %d = %d, want %d", pass+1, i, v, i+10)
			}
		}
	}
}
