package jobserv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hmccoal"
	"hmccoal/internal/durable"
)

// ---- fake executor harness --------------------------------------------------

// execGate is a controllable fake executor: each job blocks until the test
// releases it (or its context is cancelled), then returns a deterministic
// result derived from its ID. It makes scheduling, preemption and recovery
// tests instant and fully deterministic.
type execGate struct {
	mu      sync.Mutex
	gates   map[string]chan struct{}
	started chan string
}

func newExecGate() *execGate {
	return &execGate{gates: make(map[string]chan struct{}), started: make(chan string, 1024)}
}

func (g *execGate) gate(id string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.gates[id]
	if !ok {
		ch = make(chan struct{})
		g.gates[id] = ch
	}
	return ch
}

func (g *execGate) exec(ctl execCtl, id string, spec Spec) execOutcome {
	ch := g.gate(id)
	g.started <- id
	select {
	case <-ch:
		return execOutcome{result: fakeResult(id)}
	case <-ctl.ctx.Done():
		return execOutcome{err: context.Cause(ctl.ctx)}
	}
}

// release lets the job (started or not) run to completion.
func (g *execGate) release(id string) {
	ch := g.gate(id)
	select {
	case <-ch:
	default:
		close(ch)
	}
}

func (g *execGate) waitStarted(t *testing.T) string {
	t.Helper()
	select {
	case id := <-g.started:
		return id
	case <-time.After(10 * time.Second):
		t.Fatal("no job started within 10s")
		return ""
	}
}

func fakeResult(id string) []byte {
	return []byte(fmt.Sprintf(`{"job":%q,"ok":true}`, id))
}

// instantExec completes immediately with the deterministic fake result.
func instantExec(ctl execCtl, id string, spec Spec) execOutcome {
	return execOutcome{result: fakeResult(id)}
}

func singleSpec() Spec {
	return Spec{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], Ops: 40}
}

func newTestDaemon(t *testing.T, opt Options) *Daemon {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	d, err := NewDaemon(opt)
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func mustSubmit(t *testing.T, d *Daemon, tenant string, pri int, spec Spec) string {
	t.Helper()
	id, err := d.Submit(tenant, pri, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return id
}

// waitFor polls the job view until ok accepts it.
func waitFor(t *testing.T, d *Daemon, id string, what string, ok func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		v, found := d.Get(id)
		if found && ok(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (last: %+v)", id, what, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func wantAdmitCode(t *testing.T, err error, code string) *AdmitError {
	t.Helper()
	var aerr *AdmitError
	if !errors.As(err, &aerr) {
		t.Fatalf("error %v is not an *AdmitError", err)
	}
	if aerr.Code != code {
		t.Fatalf("admit code = %q, want %q (%v)", aerr.Code, code, aerr)
	}
	return aerr
}

// ---- admission --------------------------------------------------------------

func TestSubmitValidation(t *testing.T) {
	d := newTestDaemon(t, Options{exec: instantExec})
	if _, err := d.Submit("", 0, singleSpec()); err == nil {
		t.Fatal("empty tenant admitted")
	} else {
		wantAdmitCode(t, err, CodeBadSpec)
	}
	bad := []Spec{
		{Kind: "mystery"},
		{Kind: KindSingle, Bench: "no-such-bench"},
		{Kind: KindSweep, Sweep: "no-such-sweep"},
		{Kind: KindSweep, Sweep: "timeout", Bench: "no-such-bench"},
		{Kind: KindSoak},
		{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], Ops: -1},
		{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], Variant: hmccoal.Variant{Backend: 7}},
		{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], Variant: hmccoal.Variant{Frontend: -1}},
		{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], Variant: hmccoal.Variant{Sched: 2}},
		// Grids that compile to no runnable job: refused before they
		// take a slot.
		{Kind: KindSweep, Sweep: "mshr", Bench: hmccoal.Benchmarks()[0], Entries: []int{0}},
		{Kind: KindSweep, Sweep: "fault", Bench: hmccoal.Benchmarks()[0], BERs: []float64{2}},
		{Kind: KindSweep, Sweep: "fault", Bench: hmccoal.Benchmarks()[0], Variant: hmccoal.Variant{Backend: hmccoal.BackendDDR}},
	}
	for _, spec := range bad {
		if _, err := d.Submit("t", 0, spec); err == nil {
			t.Fatalf("bad spec admitted: %+v", spec)
		} else {
			wantAdmitCode(t, err, CodeBadSpec)
		}
	}
	// An unknown name cannot reach Submit: the request body fails to
	// decode, which the server refuses as a bad spec too.
	srv := httptest.NewServer(NewServer(d))
	defer srv.Close()
	bench := hmccoal.Benchmarks()[0]
	for _, spec := range []string{
		`{"kind":"single","bench":"` + bench + `","backend":"no-such-backend"}`,
		`{"kind":"single","bench":"` + bench + `","frontend":"no-such-frontend"}`,
		`{"kind":"single","bench":"` + bench + `","sched":"no-such-sched"}`,
		`{"kind":"sweep","frontend":"no-such-frontend","sweep":"stride"}`,
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(`{"tenant":"t","spec":`+spec+`}`))
		if err != nil {
			t.Fatal(err)
		}
		if e := decodeJSON[map[string]*AdmitError](t, resp)["error"]; resp.StatusCode != http.StatusBadRequest || e == nil || e.Code != CodeBadSpec {
			t.Fatalf("bad spec %s: status %d, error %+v", spec, resp.StatusCode, e)
		}
	}
}

// TestSpecWireBytes pins the JSON a job spec with a non-default machine
// encodes to — the submit body and the ledger's submit record — as the
// string-field spec wrote it, so ledgers written before the typed Variant
// replay unchanged.
func TestSpecWireBytes(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		raw  string
	}{
		{Spec{Kind: KindSingle, CPUs: 2, Ops: 120, Bench: "FT",
			Variant: hmccoal.Variant{Backend: hmccoal.BackendDDR, Frontend: hmccoal.FrontendWarp, Sched: hmccoal.SchedHetero}},
			`{"kind":"single","cpus":2,"ops":120,"bench":"FT","backend":"ddr","frontend":"warp","sched":"hetero"}`},
		{Spec{Kind: KindSweep, Sweep: "timeout", Bench: "FT", Timeouts: []uint64{16, 24},
			Variant: hmccoal.Variant{Backend: hmccoal.BackendIdeal, Sched: hmccoal.SchedHetero}},
			`{"kind":"sweep","bench":"FT","backend":"ideal","sched":"hetero","sweep":"timeout","timeouts":[16,24]}`},
	} {
		raw, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != c.raw {
			t.Errorf("spec encodes to\n %s\nwant\n %s", raw, c.raw)
		}
		var back Spec
		if err := json.Unmarshal([]byte(c.raw), &back); err != nil {
			t.Fatal(err)
		}
		if back.Variant != c.spec.Variant {
			t.Errorf("%s decodes to %+v", c.raw, back.Variant)
		}
	}
	for _, backend := range []string{`""`, `"hmc"`} {
		var s Spec
		if err := json.Unmarshal([]byte(`{"kind":"single","bench":"FT","backend":`+backend+`}`), &s); err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		if s.Variant != (hmccoal.Variant{}) {
			t.Errorf("backend %s decodes to %+v, want the default", backend, s.Variant)
		}
	}
}

func TestTenantQueueQuota(t *testing.T) {
	g := newExecGate()
	d := newTestDaemon(t, Options{
		Slots: 1,
		Quota: Quota{MaxQueued: 2},
		exec:  g.exec,
	})
	// Tenant a: one job runs, two queue; the fourth trips the quota.
	a1 := mustSubmit(t, d, "a", 0, singleSpec())
	g.waitStarted(t)
	a2 := mustSubmit(t, d, "a", 0, singleSpec())
	a3 := mustSubmit(t, d, "a", 0, singleSpec())
	_, err := d.Submit("a", 0, singleSpec())
	aerr := wantAdmitCode(t, err, CodeTenantQueue)
	if aerr.Tenant != "a" {
		t.Fatalf("refusal names tenant %q, want a", aerr.Tenant)
	}
	// Tenant b is unaffected: quotas isolate tenants.
	b1 := mustSubmit(t, d, "b", 0, singleSpec())

	for _, id := range []string{a1, a2, a3, b1} {
		g.release(id)
	}
	for _, id := range []string{a1, a2, a3, b1} {
		waitFor(t, d, id, "done", func(v JobView) bool { return v.State == StateDone })
	}
}

func TestGlobalQueueFull(t *testing.T) {
	g := newExecGate()
	d := newTestDaemon(t, Options{Slots: 1, MaxQueue: 2, exec: g.exec})
	ids := []string{
		mustSubmit(t, d, "a", 0, singleSpec()), // runs
		mustSubmit(t, d, "b", 0, singleSpec()), // queued
		mustSubmit(t, d, "c", 0, singleSpec()), // queued
	}
	g.waitStarted(t)
	if _, err := d.Submit("d", 0, singleSpec()); err == nil {
		t.Fatal("submit over the global cap admitted")
	} else {
		wantAdmitCode(t, err, CodeQueueFull)
	}
	for _, id := range ids {
		g.release(id)
	}
}

func TestRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	d := newTestDaemon(t, Options{
		exec:  instantExec,
		Quota: Quota{Rate: 1, Burst: 2},
		now:   clock,
	})
	mustSubmit(t, d, "a", 0, singleSpec())
	mustSubmit(t, d, "a", 0, singleSpec())
	_, err := d.Submit("a", 0, singleSpec())
	aerr := wantAdmitCode(t, err, CodeRateLimited)
	if aerr.RetryAfterMs <= 0 || aerr.RetryAfterMs > 1000 {
		t.Fatalf("RetryAfterMs = %d, want in (0, 1000]", aerr.RetryAfterMs)
	}
	// Another tenant has its own bucket.
	mustSubmit(t, d, "b", 0, singleSpec())
	// Waiting the hinted time refills exactly one token.
	now = now.Add(time.Duration(aerr.RetryAfterMs) * time.Millisecond)
	mustSubmit(t, d, "a", 0, singleSpec())
	if _, err := d.Submit("a", 0, singleSpec()); err == nil {
		t.Fatal("bucket refilled more than Rate allows")
	}
}

func TestMaxRunningFairness(t *testing.T) {
	g := newExecGate()
	d := newTestDaemon(t, Options{
		Slots: 2,
		Quota: Quota{MaxRunning: 1},
		exec:  g.exec,
	})
	a1 := mustSubmit(t, d, "a", 0, singleSpec())
	a2 := mustSubmit(t, d, "a", 0, singleSpec())
	b1 := mustSubmit(t, d, "b", 0, singleSpec())
	// Despite a2 being admitted first, b1 takes the second slot: tenant a
	// is at its running quota.
	first, second := g.waitStarted(t), g.waitStarted(t)
	if !(first == a1 && second == b1) && !(first == b1 && second == a1) {
		t.Fatalf("started %s, %s; want %s and %s", first, second, a1, b1)
	}
	g.release(a1)
	if got := g.waitStarted(t); got != a2 {
		t.Fatalf("after a1 finished, started %s, want %s", got, a2)
	}
	g.release(a2)
	g.release(b1)
	waitFor(t, d, a2, "done", func(v JobView) bool { return v.State == StateDone })
}

func TestDrainingRefusesSubmits(t *testing.T) {
	d := newTestDaemon(t, Options{exec: instantExec})
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, err := d.Submit("a", 0, singleSpec())
	wantAdmitCode(t, err, CodeDraining)
}

// ---- preemption and watchdog ------------------------------------------------

func TestPreemptionParksAndResumes(t *testing.T) {
	g := newExecGate()
	d := newTestDaemon(t, Options{Slots: 1, exec: g.exec})
	low := mustSubmit(t, d, "a", 0, singleSpec())
	if got := g.waitStarted(t); got != low {
		t.Fatalf("started %s, want %s", got, low)
	}
	high := mustSubmit(t, d, "b", 5, singleSpec())
	// The low job parks at its next cancellation check, the high job takes
	// the slot.
	waitFor(t, d, low, "parked", func(v JobView) bool { return v.State == StateParked })
	if got := g.waitStarted(t); got != high {
		t.Fatalf("started %s after park, want %s", got, high)
	}
	g.release(high)
	waitFor(t, d, high, "done", func(v JobView) bool { return v.State == StateDone })
	// The parked job resumes once the slot frees.
	if got := g.waitStarted(t); got != low {
		t.Fatalf("resumed %s, want %s", got, low)
	}
	g.release(low)
	v := waitFor(t, d, low, "done", func(v JobView) bool { return v.State == StateDone })
	if v.Preemptions != 1 || v.Attempts != 2 {
		t.Fatalf("low job: preemptions=%d attempts=%d, want 1 and 2", v.Preemptions, v.Attempts)
	}
}

func TestNoPreemptionWithinPriority(t *testing.T) {
	g := newExecGate()
	d := newTestDaemon(t, Options{Slots: 1, exec: g.exec})
	j1 := mustSubmit(t, d, "a", 3, singleSpec())
	g.waitStarted(t)
	j2 := mustSubmit(t, d, "b", 3, singleSpec())
	time.Sleep(20 * time.Millisecond)
	if v, _ := d.Get(j1); v.State != StateRunning {
		t.Fatalf("equal-priority arrival preempted the running job (state %s)", v.State)
	}
	if v, _ := d.Get(j2); v.State != StateQueued {
		t.Fatalf("equal-priority arrival should queue, is %s", v.State)
	}
	g.release(j1)
	g.release(j2)
}

func TestWatchdogFailsHungJob(t *testing.T) {
	g := newExecGate() // never released: the job hangs until the watchdog fires
	d := newTestDaemon(t, Options{Slots: 1, JobTimeout: 30 * time.Millisecond, exec: g.exec})
	id := mustSubmit(t, d, "a", 0, singleSpec())
	v := waitFor(t, d, id, "failed", func(v JobView) bool { return v.State == StateFailed })
	if !strings.Contains(v.Error, "watchdog") {
		t.Fatalf("failure %q does not name the watchdog", v.Error)
	}
	// The slot is free again: the next job runs.
	next := mustSubmit(t, d, "a", 0, singleSpec())
	g.waitStarted(t) // the hung job's start
	g.release(next)
	waitFor(t, d, next, "done", func(v JobView) bool { return v.State == StateDone })
}

func TestCancelQueuedAndRunning(t *testing.T) {
	g := newExecGate()
	d := newTestDaemon(t, Options{Slots: 1, exec: g.exec})
	running := mustSubmit(t, d, "a", 0, singleSpec())
	g.waitStarted(t)
	queued := mustSubmit(t, d, "a", 0, singleSpec())

	if err := d.Cancel(queued); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	waitFor(t, d, queued, "canceled", func(v JobView) bool { return v.State == StateCanceled })
	if err := d.Cancel(running); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitFor(t, d, running, "canceled", func(v JobView) bool { return v.State == StateCanceled })
	if err := d.Cancel(running); err == nil {
		t.Fatal("cancelling a terminal job succeeded")
	}
	if _, err := d.Result(running); err == nil {
		t.Fatal("result of a canceled job readable")
	}
}

// ---- crash recovery ---------------------------------------------------------

// copyDir clones a quiescent state directory — the in-package stand-in for
// a SIGKILL'd process image (the real-kill e2e lives in cmd/hmcservd).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy state dir: %v", err)
	}
}

// ledgerEventCounts tallies events per (id, type) from a ledger file.
func ledgerEventCounts(t *testing.T, dir string) map[string]map[string]int {
	t.Helper()
	evs, err := replayLedger(filepath.Join(dir, "ledger.jsonl"))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	counts := make(map[string]map[string]int)
	for _, ev := range evs {
		if counts[ev.ID] == nil {
			counts[ev.ID] = make(map[string]int)
		}
		counts[ev.ID][ev.Type]++
	}
	return counts
}

func TestCrashRecoveryAdoptsLedger(t *testing.T) {
	dir := t.TempDir()
	g := newExecGate()
	d1 := newTestDaemon(t, Options{Dir: dir, Slots: 2, exec: g.exec})

	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, mustSubmit(t, d1, fmt.Sprintf("t%d", i%2), i%3, singleSpec()))
	}
	g.waitStarted(t)
	g.waitStarted(t)

	// The ledger is quiescent (submits and starts are appended
	// synchronously; both running jobs are blocked in the gate), so the
	// directory copy is byte-for-byte the state a SIGKILL would leave.
	crashImage := t.TempDir()
	copyDir(t, dir, crashImage)

	// A fresh daemon adopts the crash image: the two jobs that were
	// "running" at the kill restart, the queued three start, all complete.
	d2 := newTestDaemon(t, Options{Dir: crashImage, Slots: 2, exec: instantExec})
	for _, id := range ids {
		v, done := d2.WaitJob(id, 10*time.Second)
		if !done || v.State != StateDone {
			t.Fatalf("job %s after recovery: %+v (done=%v)", id, v, done)
		}
		raw, err := d2.Result(id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		if string(raw) != string(fakeResult(id)) {
			t.Fatalf("job %s result %q, want %q", id, raw, fakeResult(id))
		}
	}

	// Exactly-once accounting: one submit and one terminal record per job,
	// no duplicates, no lost jobs.
	if err := d2.Close(); err != nil {
		t.Fatalf("close recovered daemon: %v", err)
	}
	counts := ledgerEventCounts(t, crashImage)
	if len(counts) != len(ids) {
		t.Fatalf("ledger names %d jobs, want %d", len(counts), len(ids))
	}
	for _, id := range ids {
		c := counts[id]
		if c[evSubmit] != 1 {
			t.Fatalf("job %s has %d submit records, want 1", id, c[evSubmit])
		}
		if terminal := c[evDone] + c[evFail] + c[evCancel]; terminal != 1 {
			t.Fatalf("job %s has %d terminal records, want exactly 1 (%v)", id, terminal, c)
		}
	}

	// Jobs that were running at the "crash" show a second attempt.
	started := map[string]bool{}
	for len(g.started) > 0 {
		started[<-g.started] = true
	}
	for _, id := range ids {
		g.release(id) // unblock d1 so Close is clean
	}
}

func TestRecoveredDoneJobsAreNotRerun(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, Options{Dir: dir, exec: instantExec})
	id := mustSubmit(t, d1, "a", 0, singleSpec())
	d1.WaitJob(id, 10*time.Second)
	if err := d1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Poison the executor: a re-run would fail the test.
	boom := func(ctl execCtl, id string, spec Spec) execOutcome {
		t.Errorf("completed job %s was re-run after recovery", id)
		return execOutcome{err: errors.New("re-run")}
	}
	d2 := newTestDaemon(t, Options{Dir: dir, exec: boom})
	v, ok := d2.Get(id)
	if !ok || v.State != StateDone {
		t.Fatalf("recovered job: %+v (ok=%v), want done", v, ok)
	}
	raw, err := d2.Result(id)
	if err != nil || string(raw) != string(fakeResult(id)) {
		t.Fatalf("recovered result = %q, %v", raw, err)
	}
}

func TestLedgerTornLineRecovery(t *testing.T) {
	// Each case appends one bad line after a clean ledger: a write torn by
	// a crash mid-append, or a well-formed submit longer than replay's
	// line cap. Either is skipped and the daemon restarts.
	spec := singleSpec()
	oversized, err := json.Marshal(event{Type: evSubmit, ID: "j-9", Tenant: strings.Repeat("x", durable.MaxLine), Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, line string }{
		{"torn", `{"type":"submit","id":"j-9`},
		{"oversized", string(oversized) + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d1 := newTestDaemon(t, Options{Dir: dir, exec: instantExec})
			id := mustSubmit(t, d1, "a", 0, singleSpec())
			d1.WaitJob(id, 10*time.Second)
			if err := d1.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			path := filepath.Join(dir, "ledger.jsonl")
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.line); err != nil {
				t.Fatal(err)
			}
			f.Close()

			d2 := newTestDaemon(t, Options{Dir: dir, exec: instantExec})
			if v, ok := d2.Get(id); !ok || v.State != StateDone {
				t.Fatalf("job after bad-line recovery: %+v (ok=%v)", v, ok)
			}
			if n := len(d2.List("")); n != 1 {
				t.Fatalf("bad line materialized a job: %d jobs, want 1", n)
			}
		})
	}
}

// TestLedgerTornTailKeepsNextJob pins torn-tail recovery across restarts:
// a daemon that starts over a ledger whose last append was torn must not
// glue its own first record onto the fragment, so a job submitted and
// finished after that restart survives the next one.
func TestLedgerTornTailKeepsNextJob(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, Options{Dir: dir, exec: instantExec})
	if err := d1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "ledger.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"submit","id":"j-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := newTestDaemon(t, Options{Dir: dir, exec: instantExec})
	id := mustSubmit(t, d2, "a", 0, singleSpec())
	if v, done := d2.WaitJob(id, 10*time.Second); !done || v.State != StateDone {
		t.Fatalf("job on the torn-tail ledger: %+v (done=%v)", v, done)
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	d3 := newTestDaemon(t, Options{Dir: dir, exec: instantExec})
	if v, ok := d3.Get(id); !ok || v.State != StateDone {
		t.Fatalf("job %s after restart: %+v (ok=%v), want done", id, v, ok)
	}
	if raw, err := d3.Result(id); err != nil || string(raw) != string(fakeResult(id)) {
		t.Fatalf("result after restart = %q, %v", raw, err)
	}
	if n := len(d3.List("")); n != 1 {
		t.Fatalf("restart lists %d jobs, want 1", n)
	}
}
