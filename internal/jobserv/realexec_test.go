package jobserv

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"hmccoal"
)

// These tests run the production executors (realExec) end to end: real
// simulations, real checkpoints, real parking of a stopped System. They pin
// the service's headline guarantee — results are byte-identical across any
// interruption history.

// waitDone waits for a terminal state and asserts it is done.
func waitDone(t *testing.T, d *Daemon, id string, timeout time.Duration) {
	t.Helper()
	v, ok := d.WaitJob(id, timeout)
	if !ok {
		t.Fatalf("job %s did not settle within %v (last: %+v)", id, timeout, v)
	}
	if v.State != StateDone {
		t.Fatalf("job %s ended %s (%s), want done", id, v.State, v.Error)
	}
}

// holdFirst returns a parkCheck seam that holds the first job of each
// listed spec at its first preemption check until the job's context ends:
// it is preempted, canceled or drained. Such a job cannot finish before
// the test acts on it, however slow the host.
func holdFirst(specs ...Spec) func(context.Context, Spec) {
	var mu sync.Mutex
	held := make([]bool, len(specs))
	return func(ctx context.Context, spec Spec) {
		mu.Lock()
		i := slices.IndexFunc(specs, func(s Spec) bool { return reflect.DeepEqual(s, spec) })
		hold := i >= 0 && !held[i]
		if hold {
			held[i] = true
		}
		mu.Unlock()
		if hold {
			<-ctx.Done()
		}
	}
}

// TestPreemptResumeEqualsUninterrupted preempts a real single-run job mid-
// simulation on every machine — the paper's, the warp front-end under the
// heterogeneity-aware scheduler, and the ddr and ideal backends — and pins
// that the parked System, resumed, finishes with result bytes equal to an
// uninterrupted run of the same spec.
func TestPreemptResumeEqualsUninterrupted(t *testing.T) {
	for _, c := range []struct {
		name    string
		variant hmccoal.Variant
	}{
		{"default", hmccoal.Variant{}},
		{"warp-hetero", hmccoal.Variant{Frontend: hmccoal.FrontendWarp, Sched: hmccoal.SchedHetero}},
		{"ddr", hmccoal.Variant{Backend: hmccoal.BackendDDR}},
		{"ideal", hmccoal.Variant{Backend: hmccoal.BackendIdeal}},
	} {
		t.Run(c.name, func(t *testing.T) {
			lowSpec := Spec{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], CPUs: 4, Ops: 3000, Seed: 11, Variant: c.variant}
			highSpec := Spec{Kind: KindSingle, Bench: hmccoal.Benchmarks()[1], CPUs: 4, Ops: 60, Seed: 5, Variant: c.variant}

			// Interrupted daemon: one slot, so the high-priority arrival
			// preempts. The low job waits at its first preemption check
			// for that. Both jobs have the same hierarchy, so a parked
			// System handed back to the pool would be the one the high
			// job runs on.
			d1 := newTestDaemon(t, Options{Slots: 1, parkCheck: holdFirst(lowSpec)})
			low := mustSubmit(t, d1, "batch", 0, lowSpec)
			waitFor(t, d1, low, "running", func(v JobView) bool { return v.State == StateRunning })
			high := mustSubmit(t, d1, "urgent", 9, highSpec)

			waitFor(t, d1, low, "preempted", func(v JobView) bool { return v.Preemptions >= 1 })
			waitDone(t, d1, high, 60*time.Second)
			waitDone(t, d1, low, 120*time.Second)
			v, _ := d1.Get(low)
			if v.Attempts < 2 {
				t.Fatalf("low job attempts = %d, want ≥ 2 (one park, one resume)", v.Attempts)
			}
			interrupted, err := d1.Result(low)
			if err != nil {
				t.Fatalf("result: %v", err)
			}

			// Reference daemon: same spec, never interrupted.
			d2 := newTestDaemon(t, Options{Slots: 1})
			ref := mustSubmit(t, d2, "batch", 0, lowSpec)
			waitDone(t, d2, ref, 120*time.Second)
			uninterrupted, err := d2.Result(ref)
			if err != nil {
				t.Fatalf("reference result: %v", err)
			}

			if !bytes.Equal(interrupted, uninterrupted) {
				t.Fatalf("preempt+resume changed the result:\n%s\nvs uninterrupted:\n%s",
					interrupted, uninterrupted)
			}
		})
	}
}

// TestReusedSystemsMatchFreshDaemon runs 4- and 8-CPU single jobs (and
// one 2-CPU job) on two slots, so their Systems are Reset and reused across hierarchies: one job
// is preempted and resumes its own parked System, one is cancelled mid-run
// (its System is dropped). Every finished result must equal the same spec
// run alone on a fresh daemon, and the idle list must never hold more than
// one System per slot.
func TestReusedSystemsMatchFreshDaemon(t *testing.T) {
	bench := hmccoal.Benchmarks()
	parked := Spec{Kind: KindSingle, Bench: bench[0], CPUs: 4, Ops: 3000, Seed: 11}
	canceled := Spec{Kind: KindSingle, Bench: bench[2], CPUs: 8, Ops: 20000, Seed: 2}
	urgent := Spec{Kind: KindSingle, Bench: bench[1], CPUs: 8, Ops: 300, Seed: 5}
	later := []Spec{
		{Kind: KindSingle, Bench: bench[7], CPUs: 4, Ops: 400, Seed: 3},
		{Kind: KindSingle, Bench: bench[3], CPUs: 8, Ops: 300, Seed: 4},
		{Kind: KindSingle, Bench: bench[0], CPUs: 4, Ops: 3000, Seed: 11},
		// A third hierarchy: the idle list must drop its oldest System.
		{Kind: KindSingle, Bench: bench[4], CPUs: 2, Ops: 300, Seed: 6},
	}

	// The parked job waits at its first preemption check for the urgent
	// arrival, and the canceled one for its cancel.
	d := newTestDaemon(t, Options{Slots: 2, parkCheck: holdFirst(parked, canceled)})
	stop := make(chan struct{})
	maxIdle := make(chan int)
	go func() {
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		most := 0
		for {
			most = max(most, d.pool.Len())
			select {
			case <-stop:
				maxIdle <- most
				return
			case <-tick.C:
			}
		}
	}()

	// Two slots busy; the urgent arrival preempts the lower-priority one.
	p := mustSubmit(t, d, "batch", 0, parked)
	c := mustSubmit(t, d, "batch", 1, canceled)
	waitFor(t, d, p, "running", func(v JobView) bool { return v.State == StateRunning })
	waitFor(t, d, c, "running", func(v JobView) bool { return v.State == StateRunning })
	u := mustSubmit(t, d, "urgent", 9, urgent)
	waitFor(t, d, p, "preempted", func(v JobView) bool { return v.Preemptions >= 1 })
	if err := d.Cancel(c); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if v, _ := d.WaitJob(c, 60*time.Second); v.State != StateCanceled {
		t.Fatalf("canceled job ended %s", v.State)
	}
	ids := map[string]Spec{p: parked, u: urgent}
	for _, spec := range later {
		ids[mustSubmit(t, d, "batch", 0, spec)] = spec
	}
	for id := range ids {
		waitDone(t, d, id, 120*time.Second)
	}
	close(stop)
	if most := <-maxIdle; most > d.opt.slots() {
		t.Errorf("idle list held %d Systems, slots = %d", most, d.opt.slots())
	}
	if idle := d.pool.Len(); idle != d.opt.slots() {
		t.Errorf("idle list holds %d Systems after the campaign, want %d", idle, d.opt.slots())
	}

	for id, spec := range ids {
		got, err := d.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		ref := newTestDaemon(t, Options{Slots: 1})
		rid := mustSubmit(t, ref, "batch", 0, spec)
		waitDone(t, ref, rid, 120*time.Second)
		want, err := ref.Result(rid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: reused-System result differs from a fresh daemon's:\n%.300s\nvs\n%.300s", spec, got, want)
		}
	}
}

// drainLoadSpecs is the mixed-kind campaign the drain test runs: one job of
// every kind in flight plus queued stragglers.
func drainLoadSpecs() []Spec {
	return []Spec{
		{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], CPUs: 4, Ops: 3000, Seed: 7},
		{Kind: KindSweep, Sweep: "timeout", Bench: hmccoal.Benchmarks()[0], CPUs: 2, Ops: 120, Timeouts: []uint64{16, 28}},
		{Kind: KindSoak, Seed: 9, Runs: 4},
		{Kind: KindSingle, Bench: hmccoal.Benchmarks()[1], CPUs: 2, Ops: 80},
		{Kind: KindSingle, Bench: hmccoal.Benchmarks()[2], CPUs: 2, Ops: 80},
	}
}

// TestDrainUnderLoad drains a daemon with a full queue and in-flight jobs
// of every kind, then has a fresh daemon adopt the ledger and finish the
// campaign with results byte-identical to a never-drained run.
func TestDrainUnderLoad(t *testing.T) {
	specs := drainLoadSpecs()
	dir := t.TempDir()

	// The 3000-op single waits at its first preemption check for the
	// drain, so it cannot finish and let the queue empty before the slots
	// are seen full.
	d1, err := NewDaemon(Options{Dir: dir, Slots: 3, SweepWorkers: 2, parkCheck: holdFirst(specs[0])})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	var ids []string
	for _, spec := range specs {
		id, err := d1.Submit("load", 0, spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		ids = append(ids, id)
	}
	// Wait until all three slots are busy — single, sweep and soak all in
	// flight — then drain mid-execution.
	deadline := time.Now().Add(15 * time.Second)
	for d1.Status().Running < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("slots never filled: %+v", d1.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := d1.Status()
	if st.Running != 0 {
		t.Fatalf("jobs still running after drain: %+v", st)
	}
	// A fast job may legally finish while the drain lands; everything else
	// must be parked or queued — never failed, canceled or lost.
	if st.Queued+st.Done != len(ids) || st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("drain lost jobs: %+v, want queued+done = %d", st, len(ids))
	}

	// A fresh daemon adopts the drained ledger and finishes everything.
	d2, err := NewDaemon(Options{Dir: dir, Slots: 3, SweepWorkers: 2})
	if err != nil {
		t.Fatalf("adopting daemon: %v", err)
	}
	t.Cleanup(func() { d2.Close() })
	for _, id := range ids {
		waitDone(t, d2, id, 180*time.Second)
	}

	// Reference: the same campaign, never drained.
	refDir := t.TempDir()
	d3, err := NewDaemon(Options{Dir: refDir, Slots: 3, SweepWorkers: 2})
	if err != nil {
		t.Fatalf("reference daemon: %v", err)
	}
	t.Cleanup(func() { d3.Close() })
	var refIDs []string
	for _, spec := range specs {
		id, err := d3.Submit("load", 0, spec)
		if err != nil {
			t.Fatalf("reference submit: %v", err)
		}
		refIDs = append(refIDs, id)
	}
	for i, id := range ids {
		waitDone(t, d3, refIDs[i], 180*time.Second)
		got, err := d2.Result(id)
		if err != nil {
			t.Fatalf("drained result %s: %v", id, err)
		}
		want, err := d3.Result(refIDs[i])
		if err != nil {
			t.Fatalf("reference result %s: %v", refIDs[i], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d (%s): drain+adopt changed the result\nafter drain: %.200s\nreference:   %.200s",
				i, specs[i].Kind, got, want)
		}
	}

	// The adopted ledger shows exactly one terminal record per job.
	counts := ledgerEventCounts(t, dir)
	for _, id := range ids {
		if terminal := counts[id][evDone] + counts[id][evFail] + counts[id][evCancel]; terminal != 1 {
			t.Fatalf("job %s has %d terminal records, want 1", id, terminal)
		}
	}
}

// TestFrontendJobsRunToDone runs the new front-end surface through the
// production executors: a warp/hetero single job and a stride sweep job
// both finish, and each reruns byte-identically on a fresh daemon.
func TestFrontendJobsRunToDone(t *testing.T) {
	specs := []Spec{
		{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], CPUs: 2, Ops: 120, Variant: hmccoal.Variant{Frontend: hmccoal.FrontendWarp, Sched: hmccoal.SchedHetero}},
		{Kind: KindSweep, Sweep: "stride", CPUs: 2, Ops: 100},
	}
	run := func(d *Daemon) [][]byte {
		var out [][]byte
		for _, spec := range specs {
			id := mustSubmit(t, d, "fe", 0, spec)
			waitDone(t, d, id, 120*time.Second)
			res, err := d.Result(id)
			if err != nil {
				t.Fatalf("result %+v: %v", spec, err)
			}
			out = append(out, res)
		}
		return out
	}
	a := run(newTestDaemon(t, Options{Slots: 1, SweepWorkers: 2}))
	b := run(newTestDaemon(t, Options{Slots: 1, SweepWorkers: 2}))
	for i := range specs {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("spec %+v results differ across daemons", specs[i])
		}
	}
}

// sweepResult runs one sweep job to done on a fresh daemon and decodes its
// result.
func sweepResult(t *testing.T, spec Spec) map[string]json.RawMessage {
	t.Helper()
	d := newTestDaemon(t, Options{Slots: 1, SweepWorkers: 2})
	id := mustSubmit(t, d, "t", 0, spec)
	waitDone(t, d, id, 120*time.Second)
	raw, err := d.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMSHRSweepReportsEfficiency pins the mshr job's result: one
// coalescing efficiency per entry count, equal to
// Result.CoalescingEfficiency of the grid's own cells.
func TestMSHRSweepReportsEfficiency(t *testing.T) {
	spec := Spec{Kind: KindSweep, Sweep: "mshr", Bench: "FT", CPUs: 2, Ops: 120, Entries: []int{4, 16}}
	var got []float64
	if err := json.Unmarshal(sweepResult(t, spec)["efficiency"], &got); err != nil {
		t.Fatal(err)
	}

	_, grid, _, err := spec.sweep()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}
	r := hmccoal.NewSweepRunner()
	var want []float64
	for i := range 2 {
		c, err := r.RunJob(context.Background(), raw, i)
		if err != nil {
			t.Fatal(err)
		}
		var cell hmccoal.SweepCell
		if err := json.Unmarshal(c, &cell); err != nil {
			t.Fatal(err)
		}
		want = append(want, cell.Res.CoalescingEfficiency())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mshr job efficiency = %v, cells' CoalescingEfficiency = %v", got, want)
	}
}

// TestSweepJobsMatchCLI pins that sweep jobs with their seed unset render
// the tables hmccoal -fig 14 and -fig fault print at the same parameters
// (hmccoal's default seed is the job default, 3). The fault table is
// built with the trace seed as explicit fault seed, as perfbench does, so
// a job whose fault seed drifts from its trace seed fails.
func TestSweepJobsMatchCLI(t *testing.T) {
	ctx := context.Background()
	p := hmccoal.TraceParams{CPUs: 2, OpsPerCPU: 100, Seed: 3}
	fig14, err := hmccoal.Figure14TableContext(ctx, p, nil, hmccoal.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := hmccoal.FaultSweepContext(ctx, "STREAM", p, uint64(p.Seed), nil, hmccoal.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec      Spec
		key, want string
	}{
		{Spec{Kind: KindSweep, Sweep: "fig14", CPUs: 2, Ops: 100}, "figure14", fig14},
		{Spec{Kind: KindSweep, Sweep: "fault", Bench: "STREAM", CPUs: 2, Ops: 100}, "table", hmccoal.FaultSweepTable(rows)},
	} {
		var got string
		if err := json.Unmarshal(sweepResult(t, c.spec)[c.key], &got); err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s job table:\n%s\nhmccoal prints:\n%s", c.spec.Sweep, got, c.want)
		}
	}
}

// TestBatchedSpecFromLedgerRuns replays a ledger written when sweep specs
// still carried the batch engine's lane width: the "batch" field decodes
// away, and the adopted job runs to the same result as the spec submitted
// without it.
func TestBatchedSpecFromLedgerRuns(t *testing.T) {
	const spec = `{"kind":"sweep","cpus":2,"ops":150,"seed":7,"bench":"FT","sweep":"mshr","entries":[8,16],"batch":2}`
	dir := t.TempDir()
	line := `{"type":"submit","id":"j-000001","tenant":"batch","spec":` + spec + "}\n"
	if err := os.WriteFile(filepath.Join(dir, "ledger.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, Options{Dir: dir})
	waitDone(t, d, "j-000001", 60*time.Second)
	got, err := d.Result("j-000001")
	if err != nil {
		t.Fatal(err)
	}

	var s Spec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		t.Fatal(err)
	}
	ref := newTestDaemon(t, Options{})
	id := mustSubmit(t, ref, "batch", 0, s)
	waitDone(t, ref, id, 60*time.Second)
	want, err := ref.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("adopted -batch spec's result differs from a fresh submit:\n%.300s\nvs\n%.300s", got, want)
	}
}
