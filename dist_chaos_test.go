package hmccoal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hmccoal/internal/dsweep"
	"hmccoal/internal/netchaos"
)

// chaosWorkers runs n in-process sweep workers whose coordinator
// connections pass through the given chaos injector, with a reconnect
// budget generous enough that the campaign — not the budget — decides
// when they stop.
func chaosWorkers(t *testing.T, addr string, n int, inj *netchaos.Injector) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var d net.Dialer
	dial := inj.Dialer(func(ctx context.Context, addr string) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	})
	for i := 0; i < n; i++ {
		go dsweep.Work(ctx, addr, NewSweepRunner().RunJob, dsweep.WorkOptions{
			Name:       fmt.Sprintf("chaos-%d", i),
			Dial:       dial,
			DialRetry:  30 * time.Second,
			Reconnects: 1000,
		})
	}
}

// TestChaosSweepDeterminism is the chaos soak: a full distributed sweep
// runs with deterministic network-fault injection on BOTH sides of every
// connection — resets, corrupted frames, short writes, failed dials,
// latency — and the campaign must still produce rows byte-identical to
// the serial -workers 1 run, with each grid index checkpointed exactly
// once. The faults are real (the injectors' counters prove they fired);
// the sweep plane's requeue/reconnect machinery is what absorbs them.
func TestChaosSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	bers := []float64{0, 1e-5}

	local, err := FaultSweepContext(context.Background(), "FT", p, 3, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	localTable, err := Figure14TableContext(context.Background(), p, []uint64{16, 28}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator side: every accepted worker connection is chaos-wrapped.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordInj, err := netchaos.New(netchaos.Config{Seed: 11, Reset: 0.05, Corrupt: 0.03, Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Chaos multiplies worker losses per job, so the requeue bound must
	// out-budget the fault rate: attempts are about campaign-killing
	// determinism (a job that crashes its host), not transient faults.
	coord := dsweep.NewCoordinator(dsweep.Options{MaxAttempts: 100})
	go coord.Serve(coordInj.Listen(ln))
	t.Cleanup(func() { coord.Close() })

	// Worker side: dials fail, established connections reset and tear.
	workInj, err := netchaos.New(netchaos.Config{Seed: 12, Reset: 0.05, ShortWrite: 0.01, DialFail: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	chaosWorkers(t, ln.Addr().String(), 2, workInj)

	// Every job is its own dispatch — the most protocol round-trips, so
	// the soak exercises the wire as hard as the grid allows.
	ckpt := t.TempDir() + "/chaos.jsonl"
	rows, err := FaultSweepContext(context.Background(), "FT", p, 3, bers,
		SweepOptions{Dispatch: coord, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(local)
	b, _ := json.Marshal(rows)
	if !bytes.Equal(a, b) {
		t.Fatal("chaos-soaked fault sweep differs from the serial run")
	}
	table, err := Figure14TableContext(context.Background(), p, []uint64{16, 28},
		SweepOptions{Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	if table != localTable {
		t.Fatalf("chaos-soaked Figure 14 table differs:\n%s\nvs\n%s", table, localTable)
	}

	// Exactly-once checkpoint despite every requeue and reconnect.
	n := len(bers) * 3
	seen := make(map[int]int)
	readCheckpointJobs(t, ckpt, n, seen)
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("checkpoint records job %d %d times, want exactly once", i, seen[i])
		}
	}

	// The soak is vacuous if no fault ever fired.
	cs, ws := coordInj.Stats(), workInj.Stats()
	faults := cs.Resets + cs.Corrupts + cs.ShortWrites + cs.DialFails +
		ws.Resets + ws.Corrupts + ws.ShortWrites + ws.DialFails
	if faults == 0 {
		t.Fatalf("no network faults fired; coord stats %+v, worker stats %+v", cs, ws)
	}
	t.Logf("chaos soak: coord %+v, workers %+v, coordinator status: %s", cs, ws, coord.Status())
}

// TestCoordinatorRestartResume is the coordinator-crash recovery story
// end to end: a campaign is interrupted mid-sweep, the coordinator goes
// away, a new coordinator starts, and rerunning the sweep against it with
// the same checkpoint completes the grid without recomputing restored
// jobs — final rows byte-identical to the serial run.
func TestCoordinatorRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	bers := []float64{0, 1e-5}
	local, err := FaultSweepContext(context.Background(), "FT", p, 3, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(local)
	ckpt := t.TempDir() + "/restart.jsonl"

	// First campaign: the worker's runner completes exactly one job and
	// gates the rest, the sweep is cancelled, and the coordinator shuts
	// down with the grid unfinished — a deterministic mid-campaign crash.
	coordA, addrA := startTestCoordinator(t, dsweep.Options{})
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	runner := NewSweepRunner()
	var jobs int32
	wctx, wcancel := context.WithCancel(context.Background())
	t.Cleanup(wcancel)
	go dsweep.Work(wctx, addrA, func(ctx context.Context, spec []byte, i int) (json.RawMessage, error) {
		if atomic.AddInt32(&jobs, 1) > 1 {
			<-gate // hold every job after the first until the test releases them
		}
		return runner.RunJob(ctx, spec, i)
	}, dsweep.WorkOptions{Name: "doomed-era"})

	// The single-slot worker completes exactly one job before the gate
	// holds the rest.
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	_, err = FaultSweepContext(sctx, "FT", p, 3, bers, SweepOptions{
		Dispatch: coordA, Checkpoint: ckpt,
		Progress: func(done, total int) {
			if done > 0 && done < total {
				scancel()
			}
		},
	})
	if err == nil {
		t.Fatal("gated sweep completed; the interruption never landed")
	}
	wcancel()
	close(gate)
	coordA.Close()

	// The interrupted checkpoint must hold some, but not all, of the grid.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	restored := len(bytes.Fields(data))
	n := len(bers) * 3
	if restored == 0 || restored >= n {
		t.Fatalf("interrupted checkpoint holds %d of %d jobs", restored, n)
	}

	// Second campaign: a fresh coordinator, a fresh worker, same
	// checkpoint. Restored jobs are not recomputed.
	coordB, addrB := startTestCoordinator(t, dsweep.Options{})
	startTestWorkers(t, addrB, 1)
	rows, err := FaultSweepContext(context.Background(), "FT", p, 3, bers,
		SweepOptions{Dispatch: coordB, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(rows)
	if !bytes.Equal(a, b) {
		t.Fatal("rows resumed under a restarted coordinator differ from the serial run")
	}
	seen := make(map[int]int)
	readCheckpointJobs(t, ckpt, n, seen)
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("checkpoint records job %d %d times after the restart, want exactly once", i, seen[i])
		}
	}
}

// TestBadTokenWorkerDoesNotDisturbCampaign runs a campaign on an
// authenticated coordinator while unauthenticated workers hammer it: the
// intruders are rejected (and counted), the campaign's rows stay
// byte-identical to the serial run.
func TestBadTokenWorkerDoesNotDisturbCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	bers := []float64{0, 1e-5}
	local, err := FaultSweepContext(context.Background(), "FT", p, 3, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	coord, addr := startTestCoordinator(t, dsweep.Options{Token: "s3cret"})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go dsweep.Work(ctx, addr, NewSweepRunner().RunJob, dsweep.WorkOptions{Name: "auth", Token: "s3cret"})

	// Intruders: wrong token, then no token, in a loop for the whole
	// campaign. Each must be turned away with a Bye and a counted reject.
	intruders := make(chan struct{})
	go func() {
		defer close(intruders)
		for i := 0; i < 10; i++ {
			if ctx.Err() != nil {
				return
			}
			ictx, icancel := context.WithTimeout(ctx, 5*time.Second)
			err := dsweep.Work(ictx, addr, NewSweepRunner().RunJob, dsweep.WorkOptions{
				Name: "intruder", Token: strings.Repeat("x", i), Reconnects: -1,
			})
			icancel()
			if err == nil && ctx.Err() == nil {
				t.Error("unauthenticated worker was accepted")
				return
			}
		}
	}()

	rows, err := FaultSweepContext(context.Background(), "FT", p, 3, bers,
		SweepOptions{Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	<-intruders
	a, _ := json.Marshal(local)
	b, _ := json.Marshal(rows)
	if !bytes.Equal(a, b) {
		t.Fatal("campaign rows changed while intruders hammered the coordinator")
	}
	st := coord.Status()
	if st.AuthRejects < 10 {
		t.Fatalf("auth rejects = %d, want ≥ 10\n%s", st.AuthRejects, st)
	}
}
