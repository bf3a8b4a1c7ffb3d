package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestMapRestoresGroupedCheckpoint: a checkpoint written by the earlier
// grouped engine — one line per job, appended a group at a time, so a
// failed group leaves a hole in the middle of the grid — restores into
// Map, which recomputes only the missing jobs; a complete one runs
// nothing.
func TestMapRestoresGroupedCheckpoint(t *testing.T) {
	const n = 8
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	// Groups of two: {0,1} {2,3} {6,7} completed, {4,5} failed.
	var lines string
	for _, i := range []int{0, 1, 2, 3, 6, 7} {
		lines += fmt.Sprintf(`{"job":%d,"n":%d,"tag":"grid","result":%d}`+"\n", i, n, i*10)
	}
	if err := os.WriteFile(ckpt, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}

	var ran []int
	var mu sync.Mutex
	run := func(_ context.Context, i int) (int, error) {
		mu.Lock()
		ran = append(ran, i)
		mu.Unlock()
		return i * 10, nil
	}
	got, err := Map(context.Background(), n, Options{Workers: 2, Checkpoint: ckpt, Tag: "grid"}, run)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != i*10 {
			t.Errorf("result[%d] = %d, want %d", i, got[i], i*10)
		}
	}
	slices.Sort(ran)
	if !reflect.DeepEqual(ran, []int{4, 5}) {
		t.Errorf("resume ran jobs %v, want [4 5]", ran)
	}

	ran = nil
	if _, err := Map(context.Background(), n, Options{Workers: 1, Checkpoint: ckpt, Tag: "grid"}, run); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 0 {
		t.Errorf("a complete checkpoint recomputed jobs %v", ran)
	}
}

// TestCheckpointDuplicateLinesLastWins pins the duplicate-index contract:
// an interrupted append that was re-appended on resume leaves two lines
// for one job, and restore must take the last complete one. The torn line
// in the middle of the file must cost only itself — every line after it
// still restores (the old decoder-based scan lost the whole tail).
func TestCheckpointDuplicateLinesLastWins(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	content := `{"job":0,"n":4,"result":1}
{"job":1,"n":4,"result":10}
{"job":2,"n":4,"res
{"job":1,"n":4,"result":11}
{"job":3,"n":4,"result":30}
`
	if err := os.WriteFile(ckpt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var ran []int
	got, err := Map(context.Background(), 4, Options{Workers: 1, Checkpoint: ckpt},
		func(_ context.Context, i int) (int, error) {
			ran = append(ran, i)
			return 100 + i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []int{2}) {
		t.Errorf("jobs recomputed: %v, want [2] (only the torn line)", ran)
	}
	want := []int{1, 11, 102, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored results %v, want %v (job 1 last-wins, job 3 survives the torn line)", got, want)
	}
}

// TestCheckpointDuplicateBrokenPayloadKeptOut: a duplicate whose payload
// does not decode cannot supersede an earlier good record.
func TestCheckpointDuplicateBrokenPayloadKeptOut(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	content := `{"job":0,"n":2,"result":7}
{"job":0,"n":2,"result":"not an int"}
`
	if err := os.WriteFile(ckpt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Map(context.Background(), 2, Options{Workers: 1, Checkpoint: ckpt},
		func(_ context.Context, i int) (int, error) { return 100 + i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("job 0 restored as %d, want 7 (broken duplicate must not supersede)", got[0])
	}
}
