package dsweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startCoordinator serves a test coordinator on an ephemeral port.
func startCoordinator(t *testing.T, opt Options) (*Coordinator, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(opt)
	go c.Serve(ln)
	t.Cleanup(func() { c.Close() })
	return c, ln.Addr().String()
}

// echoRunner returns a cell holding the job's index and spec, so the
// test can verify coverage end to end.
func echoRunner(calls *atomic.Int64) JobRunner {
	return func(_ context.Context, spec []byte, i int) (json.RawMessage, error) {
		if calls != nil {
			calls.Add(1)
		}
		return json.RawMessage(fmt.Sprintf(`{"idx":%d,"spec":%s}`, i, spec)), nil
	}
}

// cellIdx decodes the index an echoRunner cell carries, or reports the
// cell and returns -1. Tests call it off their own goroutine, so it does
// not stop the test.
func cellIdx(t *testing.T, cell json.RawMessage) int {
	t.Helper()
	var c struct {
		Idx int `json:"idx"`
	}
	if err := json.Unmarshal(cell, &c); err != nil {
		t.Errorf("cell %s: %v", cell, err)
		return -1
	}
	return c.Idx
}

// rawWorker speaks the wire protocol by hand, so tests can misbehave in
// ways the real Work loop never would.
type rawWorker struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string, proto int) *rawWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeMsg(conn, MsgHello, helloMsg{Proto: proto, Name: "raw"}); err != nil {
		t.Fatal(err)
	}
	return &rawWorker{t: t, conn: conn}
}

// expect reads one frame and asserts its type.
func (w *rawWorker) expect(typ MsgType) []byte {
	w.t.Helper()
	w.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, payload, err := ReadFrame(w.conn)
	if err != nil {
		w.t.Fatalf("expecting %v: %v", typ, err)
	}
	if got != typ {
		w.t.Fatalf("expected %v, got %v", typ, got)
	}
	return payload
}

// takeJob completes the handshake if needed, pulls one job and returns it.
func (w *rawWorker) takeJob() jobMsg {
	w.t.Helper()
	if err := writeMsg(w.conn, MsgReady, nil); err != nil {
		w.t.Fatal(err)
	}
	var job jobMsg
	if err := decodeMsg(MsgJob, w.expect(MsgJob), &job); err != nil {
		w.t.Fatal(err)
	}
	return job
}

// runJob dispatches job i through c and returns the index its cell
// carries, or reports the failure and returns -1, like cellIdx.
func runJob(t *testing.T, c *Coordinator, i int) int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cell, err := c.RunJob(ctx, []byte(`{"kind":"test"}`), i)
	if err != nil {
		t.Errorf("job %d: %v", i, err)
		return -1
	}
	return cellIdx(t, cell)
}

func TestCoordinatorRoundTrip(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- Work(ctx, addr, echoRunner(nil), WorkOptions{Name: "w", Slots: 2}) }()

	// Several jobs in flight at once exercise the work-stealing pull.
	type res struct{ want, got int }
	results := make(chan res, 6)
	for i := 0; i < 6; i++ {
		go func() { results <- res{i, runJob(t, c, i)} }()
	}
	for range 6 {
		if r := <-results; r.got != r.want {
			t.Fatalf("job %d came back with the cell of job %d", r.want, r.got)
		}
	}

	// Cancelling the worker context drains it cleanly.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker drain: %v", err)
	}
}

func TestWorkerCrashRequeues(t *testing.T) {
	c, addr := startCoordinator(t, Options{})

	// The victim takes the job and crashes (connection drops mid-lease).
	victim := dialRaw(t, addr, protoVersion)
	victim.expect(MsgHello)
	result := make(chan int, 1)
	go func() { result <- runJob(t, c, 4) }()
	job := victim.takeJob()
	if job.Idx != 4 {
		t.Fatalf("job idx %d, want 4", job.Idx)
	}
	victim.conn.Close()

	// A healthy worker picks the requeued job up and completes it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	go Work(ctx, addr, echoRunner(&calls), WorkOptions{Name: "healthy"})

	if i := <-result; i != 4 {
		t.Fatalf("requeued job returned the cell of job %d", i)
	}
	if calls.Load() != 1 {
		t.Fatalf("healthy worker ran the job %d times", calls.Load())
	}
}

func TestLeaseTimeoutRequeues(t *testing.T) {
	c, addr := startCoordinator(t, Options{Lease: 50 * time.Millisecond})

	// The slow worker takes the job and goes silent without dying.
	slow := dialRaw(t, addr, protoVersion)
	slow.expect(MsgHello)
	result := make(chan int, 1)
	go func() { result <- runJob(t, c, 7) }()
	slow.takeJob() // never answers

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Work(ctx, addr, echoRunner(nil), WorkOptions{Name: "healthy"})

	if i := <-result; i != 7 {
		t.Fatalf("leased-out job returned the cell of job %d", i)
	}
}

func TestJobErrorFailsWithoutRequeue(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	go Work(ctx, addr, func(context.Context, []byte, int) (json.RawMessage, error) {
		calls.Add(1)
		return nil, errors.New("deterministic sim failure")
	}, WorkOptions{Name: "failing"})

	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer rcancel()
	_, err := c.RunJob(rctx, []byte(`{}`), 0)
	if err == nil || !strings.Contains(err.Error(), "deterministic sim failure") {
		t.Fatalf("want the job error, got %v", err)
	}
	// The error is final: the job must not bounce to another attempt.
	time.Sleep(50 * time.Millisecond)
	if calls.Load() != 1 {
		t.Fatalf("failed job ran %d times, want 1", calls.Load())
	}
}

// TestEmptyCellFailsWithoutRequeue: a Result frame without a cell is a
// worker bug, so the coordinator fails the job rather than recompute the
// same bug elsewhere.
func TestEmptyCellFailsWithoutRequeue(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	for _, res := range []string{`{"id":%d}`, `{"id":%d,"cell":null}`} {
		w := dialRaw(t, addr, protoVersion)
		w.expect(MsgHello)
		result := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := c.RunJob(ctx, []byte(`{}`), 0)
			result <- err
		}()
		job := w.takeJob()
		if err := WriteFrame(w.conn, MsgResult, []byte(fmt.Sprintf(res, job.ID))); err != nil {
			t.Fatal(err)
		}
		if err := <-result; err == nil || !strings.Contains(err.Error(), "no cell") {
			t.Fatalf("result %s: want a no-cell failure, got %v", res, err)
		}
	}
	if st := c.Status(); st.Requeues != 0 {
		t.Fatalf("an empty cell requeued its job %d times", st.Requeues)
	}
}

func TestMaxAttemptsFailsGroup(t *testing.T) {
	c, addr := startCoordinator(t, Options{MaxAttempts: 2})
	result := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := c.RunJob(ctx, []byte(`{}`), 0)
		result <- err
	}()
	// Two consecutive workers crash on the same job.
	for i := 0; i < 2; i++ {
		w := dialRaw(t, addr, protoVersion)
		w.expect(MsgHello)
		w.takeJob()
		w.conn.Close()
	}
	err := <-result
	if err == nil || !strings.Contains(err.Error(), "lost 2 workers") {
		t.Fatalf("want a lost-workers failure, got %v", err)
	}
}

func TestRunJobContextCancel(t *testing.T) {
	c, _ := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunJob(ctx, []byte(`{}`), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The cancelled job must not linger for the next worker.
	c.mu.Lock()
	queued := len(c.queue)
	c.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d jobs still queued after cancellation", queued)
	}
}

func TestProtocolVersionMismatch(t *testing.T) {
	_, addr := startCoordinator(t, Options{})
	w := dialRaw(t, addr, protoVersion+1)
	w.expect(MsgBye)
}

func TestCloseFailsQueuedGroups(t *testing.T) {
	c, _ := startCoordinator(t, Options{})
	result := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := c.RunJob(ctx, []byte(`{}`), 0)
		result <- err
	}()
	// Wait until the job is queued, then shut down.
	for {
		c.mu.Lock()
		n := len(c.queue)
		c.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	err := <-result
	if err == nil || !strings.Contains(err.Error(), "coordinator closed") {
		t.Fatalf("want a closed-coordinator failure, got %v", err)
	}
	if _, err := c.RunJob(context.Background(), []byte(`{}`), 0); err == nil {
		t.Fatal("RunJob after Close succeeded")
	}
}

func TestGracefulDrainDeliversRunningGroup(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Work(ctx, addr, func(_ context.Context, spec []byte, i int) (json.RawMessage, error) {
			close(started)
			// The cancellation lands while this job is running; the drain
			// contract says the result is still computed and delivered.
			time.Sleep(100 * time.Millisecond)
			return echoRunner(nil)(context.Background(), spec, i)
		}, WorkOptions{Name: "draining"})
	}()

	result := make(chan int, 1)
	go func() { result <- runJob(t, c, 9) }()
	<-started
	cancel() // SIGTERM mid-job

	if i := <-result; i != 9 {
		t.Fatalf("drained job returned the cell of job %d", i)
	}
	if err := <-done; err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
}

func TestWorkDialFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Nothing listens here; the dial budget must expire with an error.
	err := Work(ctx, "127.0.0.1:1", echoRunner(nil), WorkOptions{Name: "w", DialRetry: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("Work reached a dead address")
	}
}

// TestDialKeepsCauseOverBudgetTimeout pins dial's error report: when the
// budget runs out during a final attempt, the failure names why the
// earlier attempt failed (here a certificate error), not the timeout
// the cut-off attempt hit.
func TestDialKeepsCauseOverBudgetTimeout(t *testing.T) {
	certErr := errors.New("tls: failed to verify certificate: x509: certificate signed by unknown authority")
	var calls atomic.Int32
	dialOne := func(ctx context.Context, addr string) (net.Conn, error) {
		if calls.Add(1) == 1 {
			return nil, certErr
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, err := dial(context.Background(), "coord", dialOne, 300*time.Millisecond, 1)
	if calls.Load() != 2 {
		t.Fatalf("dial made %d attempts, want 2", calls.Load())
	}
	if !errors.Is(err, certErr) {
		t.Fatalf("dial reported %v, want the certificate error", err)
	}
}

// pipeDialer returns a Dial hook that connects each dial attempt straight
// to the coordinator through an in-memory pipe, and a kill function that
// severs the most recent connection (both ends), simulating a transport
// reset the worker must recover from.
func pipeDialer(c *Coordinator) (dial func(ctx context.Context, addr string) (net.Conn, error), kill func()) {
	var mu sync.Mutex
	var last [2]net.Conn
	dial = func(ctx context.Context, addr string) (net.Conn, error) {
		p1, p2 := net.Pipe()
		go c.Handle(p2)
		mu.Lock()
		last = [2]net.Conn{p1, p2}
		mu.Unlock()
		return p1, nil
	}
	kill = func() {
		mu.Lock()
		defer mu.Unlock()
		if last[0] != nil {
			last[0].Close()
			last[1].Close()
		}
	}
	return dial, kill
}

func TestWorkerReconnectsAfterTransportLoss(t *testing.T) {
	c := NewCoordinator(Options{})
	t.Cleanup(func() { c.Close() })
	dial, kill := pipeDialer(c)

	started := make(chan struct{})
	killed := make(chan struct{})
	var calls atomic.Int64
	runner := func(_ context.Context, spec []byte, i int) (json.RawMessage, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-killed // hold the job until the test severs the connection
		}
		return echoRunner(nil)(context.Background(), spec, i)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Work(ctx, "pipe", runner, WorkOptions{Name: "flaky", Dial: dial, DialRetry: 5 * time.Second})
	}()

	result := make(chan int, 1)
	go func() { result <- runJob(t, c, 1) }()

	// Sever the connection while the job runs: the coordinator requeues
	// it off the broken lease, and the slot's result write fails — a
	// non-drain transport loss that must trigger a reconnect.
	<-started
	kill()
	close(killed)

	if i := <-result; i != 1 {
		t.Fatalf("job returned the cell of job %d after reconnect", i)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("job ran %d times, want 2 (once per era)", n)
	}
	st := c.Status()
	if st.Reconnects != 1 {
		t.Fatalf("Status reconnects = %d, want 1\n%s", st.Reconnects, st)
	}
	if len(st.PerWorker) != 1 || st.PerWorker[0].Connects != 2 || st.PerWorker[0].Completed != 1 {
		t.Fatalf("per-worker status: %+v", st.PerWorker)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker drain after reconnect: %v", err)
	}
}

func TestReconnectBudgetExhausted(t *testing.T) {
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		return nil, errors.New("injected dial failure")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := Work(ctx, "pipe", echoRunner(nil), WorkOptions{
		Name: "doomed", Dial: dial, DialRetry: 20 * time.Millisecond, Reconnects: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "consecutive connection failures") {
		t.Fatalf("want a budget-exhausted failure, got %v", err)
	}
}

func TestBadTokenRejected(t *testing.T) {
	c, addr := startCoordinator(t, Options{Token: "s3cret"})

	// Wrong token: terminal for the worker, counted by the coordinator.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := Work(ctx, addr, echoRunner(nil), WorkOptions{Name: "intruder", Token: "guess"})
	if err == nil || !strings.Contains(err.Error(), "rejected the handshake") {
		t.Fatalf("want a handshake rejection, got %v", err)
	}
	if got := c.Status().AuthRejects; got != 1 {
		t.Fatalf("auth rejects = %d, want 1", got)
	}

	// Right token: business as usual.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go Work(wctx, addr, echoRunner(nil), WorkOptions{Name: "legit", Token: "s3cret"})
	if i := runJob(t, c, 1); i != 1 {
		t.Fatalf("authenticated worker returned the cell of job %d", i)
	}

	// Empty token against a token-bearing coordinator is also rejected.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := Work(ctx2, addr, echoRunner(nil), WorkOptions{Name: "anon"}); err == nil {
		t.Fatal("tokenless worker passed a token-bearing coordinator")
	}
}

func TestStalledPeerCannotWedgeCoordinator(t *testing.T) {
	// A connection that never sends its hello must release the handler
	// within the I/O deadline, not pin it forever.
	c := NewCoordinator(Options{IOTimeout: 50 * time.Millisecond})
	t.Cleanup(func() { c.Close() })
	p1, p2 := net.Pipe()
	defer p1.Close()
	done := make(chan struct{})
	go func() { c.Handle(p2); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator handler wedged on a silent peer")
	}
}

func TestStalledPeerCannotWedgeWorker(t *testing.T) {
	// A peer that accepts the connection but never drains it must fail the
	// slot's hello write within the I/O deadline; with reconnection
	// disabled that surfaces as a prompt Work error.
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		p1, p2 := net.Pipe()
		t.Cleanup(func() { p1.Close(); p2.Close() })
		return p1, nil // nobody ever reads p2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	err := Work(ctx, "pipe", echoRunner(nil), WorkOptions{
		Name: "stalled", Dial: dial, IOTimeout: 50 * time.Millisecond, Reconnects: -1,
	})
	if err == nil {
		t.Fatal("Work returned nil against a stalled peer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled peer held the slot for %v", elapsed)
	}
}

func TestDrainRaceStillDeliversResult(t *testing.T) {
	// Cancellation landing between the runner returning and the result
	// frame going out must not tear the finished job off the wire.
	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testHookBeforeReport = func() {
		cancel()
		time.Sleep(50 * time.Millisecond) // give the drain AfterFunc every chance to misfire
	}
	defer func() { testHookBeforeReport = nil }()

	done := make(chan error, 1)
	go func() { done <- Work(ctx, addr, echoRunner(nil), WorkOptions{Name: "racer"}) }()
	if i := runJob(t, c, 2); i != 2 {
		t.Fatalf("drain-raced job returned the cell of job %d", i)
	}
	if err := <-done; err != nil {
		t.Fatalf("drain-raced worker returned %v", err)
	}
}

func TestOversizeFieldsTruncated(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	longName := strings.Repeat("n", 10*MaxNameLen)
	if err := writeMsg(conn, MsgHello, helloMsg{Proto: protoVersion, Name: longName}); err != nil {
		t.Fatal(err)
	}
	w := &rawWorker{t: t, conn: conn}
	w.expect(MsgHello)

	result := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := c.RunJob(ctx, []byte(`{}`), 0)
		result <- err
	}()
	job := w.takeJob()
	if err := writeMsg(conn, MsgFail, failMsg{ID: job.ID, Error: strings.Repeat("e", 10*MaxErrorLen)}); err != nil {
		t.Fatal(err)
	}
	gerr := <-result
	if gerr == nil {
		t.Fatal("oversize fail message did not fail the job")
	}
	if len(gerr.Error()) > MaxErrorLen+128 {
		t.Fatalf("delivered error is %d bytes; the coordinator did not truncate", len(gerr.Error()))
	}
	st := c.Status()
	if len(st.PerWorker) != 1 {
		t.Fatalf("per-worker rows: %+v", st.PerWorker)
	}
	if n := len(st.PerWorker[0].Name); n > MaxNameLen {
		t.Fatalf("worker name kept %d bytes, cap is %d", n, MaxNameLen)
	}
	if st.PerWorker[0].Fails != 1 {
		t.Fatalf("fails = %d, want 1", st.PerWorker[0].Fails)
	}
}

func TestStatusSnapshot(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Work(ctx, addr, echoRunner(nil), WorkOptions{Name: "obs"})

	for i := 0; i < 6; i++ {
		runJob(t, c, i)
	}
	var st Status
	for deadline := time.Now().Add(5 * time.Second); ; {
		st = c.Status()
		if st.Workers == 1 && len(st.PerWorker) == 1 && st.PerWorker[0].Completed == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("idle coordinator shows queued=%d inflight=%d", st.Queued, st.InFlight)
	}
	w := st.PerWorker[0]
	if w.Name != "obs" || !w.Connected || w.Completed != 6 || w.Connects != 1 {
		t.Fatalf("per-worker row: %+v", w)
	}
	out := st.String()
	for _, want := range []string{"queued", "obs", "6 jobs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Status.String() = %q, missing %q", out, want)
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	seedA, seedB := slotSeed("w/0"), slotSeed("w/1")
	if seedA == seedB {
		t.Fatal("distinct slots share a jitter seed")
	}
	distinct := false
	for n := 1; n <= 8; n++ {
		da, db := reconnectDelay(seedA, n), reconnectDelay(seedB, n)
		if da != reconnectDelay(seedA, n) {
			t.Fatalf("reconnectDelay(%d) is not deterministic", n)
		}
		if da != db {
			distinct = true
		}
		if da <= 0 || da > 3*time.Second {
			t.Fatalf("reconnectDelay(%d) = %v out of range", n, da)
		}
	}
	if !distinct {
		t.Fatal("two slots backed off in lockstep across every attempt")
	}
	for attempt := 0; attempt < 8; attempt++ {
		j := backoffJitter(seedA, attempt, 100*time.Millisecond)
		if j < 0 || j >= 50*time.Millisecond {
			t.Fatalf("jitter %v outside [0, base/2)", j)
		}
	}
}

func TestWorkerReconnectsAfterCoordinatorEOF(t *testing.T) {
	// A bare EOF on the pull wait (coordinator crashed or the connection
	// died cleanly) is not a drain — only an explicit Bye is. The slot
	// must re-dial and keep serving the campaign.
	c := NewCoordinator(Options{})
	t.Cleanup(func() { c.Close() })
	var mu sync.Mutex
	var remote net.Conn
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		p1, p2 := net.Pipe()
		go c.Handle(p2)
		mu.Lock()
		remote = p2
		mu.Unlock()
		return p1, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Work(ctx, "pipe", echoRunner(nil), WorkOptions{Name: "eof", Dial: dial})
	}()

	// Let the worker handshake, then close the coordinator end under it.
	for deadline := time.Now().Add(5 * time.Second); c.Status().Workers == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never handshaked")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	remote.Close()
	mu.Unlock()

	for deadline := time.Now().Add(10 * time.Second); c.Status().Reconnects == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("worker never reconnected after EOF\n%s", c.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if i := runJob(t, c, 2); i != 2 {
		t.Fatalf("post-EOF job returned the cell of job %d", i)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker drain after EOF reconnect: %v", err)
	}
}
