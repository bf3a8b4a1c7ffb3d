package hmccoal

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"hmccoal/internal/dsweep"
)

// startTestCoordinator serves a dsweep coordinator on an ephemeral port
// and returns it with its address.
func startTestCoordinator(t *testing.T, opt dsweep.Options) (*dsweep.Coordinator, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := dsweep.NewCoordinator(opt)
	go coord.Serve(ln)
	t.Cleanup(func() { coord.Close() })
	return coord, ln.Addr().String()
}

// startTestWorkers runs n in-process sweep workers against the
// coordinator, each with the real worker-side runner.
func startTestWorkers(t *testing.T, addr string, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		go dsweep.Work(ctx, addr, NewSweepRunner().RunGroup, dsweep.WorkOptions{Name: "test-worker"})
	}
}

// SweepRunner.RunGroup has the GroupRunner signature dsweep.Work expects,
// and *SweepRunner is the in-process Dispatcher; these assignments pin
// both contracts at compile time.
var (
	_ dsweep.GroupRunner = NewSweepRunner().RunGroup
	_ Dispatcher         = NewSweepRunner()
)

// TestDistributedSweepDeterminism is the distribution tentpole's
// correctness contract: a sweep dispatched to remote workers must produce
// byte-identical results to the local -workers 1 pipeline.
func TestDistributedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	bers := []float64{0, 1e-5}

	localRows, err := FaultSweepContext(context.Background(), "FT", p, 3, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	localTable, err := Figure14TableContext(context.Background(), p, []uint64{16, 28}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	coord, addr := startTestCoordinator(t, dsweep.Options{})
	startTestWorkers(t, addr, 2)
	opt := SweepOptions{Batch: 2, Dispatch: coord}

	distRows, err := FaultSweepContext(context.Background(), "FT", p, 3, bers, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localRows, distRows) {
		t.Fatal("distributed fault sweep differs from the local -workers 1 sweep")
	}
	a, _ := json.Marshal(localRows)
	b, _ := json.Marshal(distRows)
	if !bytes.Equal(a, b) {
		t.Fatal("distributed fault sweep serializes differently from the local sweep")
	}

	distTable, err := Figure14TableContext(context.Background(), p, []uint64{16, 28}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if distTable != localTable {
		t.Fatalf("distributed Figure 14 table differs:\n%s\nvs\n%s", distTable, localTable)
	}
}

// crashNextWorker connects a protocol-conformant worker that takes one
// job group and drops dead (connection cut mid-lease), exercising the
// coordinator's requeue path with the exact wire traffic a killed worker
// process produces. It returns once the group has been taken.
func crashNextWorker(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := json.Marshal(map[string]any{"proto": 2, "name": "crash-test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := dsweep.WriteFrame(conn, dsweep.MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if typ, _, err := dsweep.ReadFrame(conn); err != nil || typ != dsweep.MsgHello {
		t.Fatalf("handshake reply: (%v, %v)", typ, err)
	}
	if err := dsweep.WriteFrame(conn, dsweep.MsgReady, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := dsweep.ReadFrame(conn); err != nil || typ != dsweep.MsgJob {
		t.Fatalf("expected a job, got (%v, %v)", typ, err)
	}
	conn.Close() // crash with the group leased
}

// TestDistributedWorkerKillLosesNoJobs kills a worker mid-group and
// checks the coordinator's recovery end to end: the group is requeued to
// a surviving worker, the final rows match the single-process run
// byte-for-byte, and the checkpoint holds every job exactly once.
func TestDistributedWorkerKillLosesNoJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	bers := []float64{0, 1e-5}

	local, err := FaultSweepContext(context.Background(), "FT", p, 3, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	coord, addr := startTestCoordinator(t, dsweep.Options{})
	ckpt := t.TempDir() + "/dist.jsonl"
	opt := SweepOptions{Batch: 2, Dispatch: coord, Checkpoint: ckpt}

	// The first worker to connect takes the whole batch group and dies;
	// the healthy worker started after it must pick up the requeue.
	done := make(chan struct{})
	go func() {
		defer close(done)
		crashNextWorker(t, addr)
		startTestWorkers(t, addr, 1)
	}()

	dist, err := FaultSweepContext(context.Background(), "FT", p, 3, bers, opt)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	a, _ := json.Marshal(local)
	b, _ := json.Marshal(dist)
	if !bytes.Equal(a, b) {
		t.Fatal("rows after a worker kill differ from the single-process run")
	}

	// The checkpoint must hold each grid index exactly once — the killed
	// worker's forfeited group may not leave conflicting duplicates.
	n := len(bers) * 3
	seen := make(map[int]int)
	readCheckpointJobs(t, ckpt, n, seen)
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("checkpoint records job %d %d times, want exactly once", i, seen[i])
		}
	}

	// And resuming from it recomputes nothing.
	recomputed := 0
	resumed, err := FaultSweepContext(context.Background(), "FT", p, 3, bers, SweepOptions{
		Workers: 1, Checkpoint: ckpt,
		Progress: func(done, total int) {
			if done > total {
				t.Errorf("progress overshot: %d/%d", done, total)
			}
			recomputed++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if recomputed != 1 { // one up-front restored-jobs report, zero per-job ticks
		t.Errorf("resume made %d progress calls, want 1 (all jobs restored)", recomputed)
	}
	c, _ := json.Marshal(resumed)
	if !bytes.Equal(a, c) {
		t.Fatal("rows resumed from the post-kill checkpoint differ")
	}
}

// readCheckpointJobs counts how often each job index appears in a JSONL
// checkpoint written for an n-job grid.
func readCheckpointJobs(t *testing.T, path string, n int, seen map[int]int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line struct {
			Job int `json:"job"`
			N   int `json:"n"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("torn checkpoint line %q: %v", raw, err)
		}
		if line.N != n {
			t.Fatalf("checkpoint line for a %d-job grid in a %d-job sweep", line.N, n)
		}
		seen[line.Job]++
	}
}
