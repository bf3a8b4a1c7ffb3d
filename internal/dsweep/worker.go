package dsweep

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hmccoal/internal/splitmix"
)

// JobRunner executes one sweep job on the worker: spec is the opaque JSON
// grid description the coordinator shipped, i the grid index to run, and
// the result is the job's JSON-encoded cell. An error fails the job on
// the coordinator without a requeue, so runners should return errors
// only for deterministic failures — and let genuine crashes crash.
type JobRunner func(ctx context.Context, spec []byte, i int) (json.RawMessage, error)

// WorkOptions tunes a worker process.
type WorkOptions struct {
	// Name identifies the worker in coordinator logs.
	Name string
	// Slots is the number of jobs the worker runs concurrently, each on
	// its own connection (the coordinator treats every connection
	// as an independent work-stealing puller). 0 means 1.
	Slots int
	// DialRetry is the budget for reaching the coordinator: each dial is
	// retried with jittered backoff until it succeeds or this much time
	// passes, so workers may be launched before the coordinator's
	// listener is up. A coordinator certificate the worker does not
	// trust fails at once: no retry can fix it. 0 means DefaultDialRetry.
	DialRetry time.Duration
	// Token authenticates the worker to the coordinator: it travels in
	// the Hello and must match the coordinator's -token (or both must be
	// empty). A rejected token is terminal — the slot does not burn its
	// reconnect budget re-presenting credentials the coordinator already
	// refused.
	Token string
	// Reconnects bounds consecutive failed connection attempts after a
	// transport loss: a slot whose connection dies re-dials with jittered
	// backoff, re-handshakes and resumes pulling; the counter resets on
	// every successful handshake, so a long campaign on a flaky network
	// keeps recovering while a dead coordinator exhausts the budget
	// quickly. 0 means DefaultReconnects; negative disables reconnection
	// (any transport loss fails the slot).
	Reconnects int
	// IOTimeout bounds every frame write and every bounded-expectation
	// frame read (the handshake reply), so a stalled or half-open peer
	// can never wedge a slot. Idle waits — a Ready with no work queued —
	// remain unbounded by design, covered by TCP keepalives. 0 means
	// DefaultIOTimeout.
	IOTimeout time.Duration
	// Dial overrides a single dial attempt (tests and chaos injection);
	// nil uses a plain TCP dial. Retry policy stays with the worker.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// CacheStats, when non-nil, is polled after every completed job and
	// its counters shipped in the Result frame, surfacing the worker's
	// trace-cache effectiveness in the coordinator's Status(). It must be
	// safe for concurrent use (slots share one runner).
	CacheStats func() CacheCounts
}

// Defaults for WorkOptions.
const (
	// DefaultDialRetry is the default coordinator dial budget.
	DefaultDialRetry = 10 * time.Second
	// DefaultReconnects is the default bound on consecutive failed
	// reconnection attempts.
	DefaultReconnects = 5
	// DefaultIOTimeout is the default per-frame I/O deadline on both
	// sides of the protocol.
	DefaultIOTimeout = 30 * time.Second
)

func (o WorkOptions) slots() int {
	if o.Slots < 1 {
		return 1
	}
	return o.Slots
}

func (o WorkOptions) dialRetry() time.Duration {
	if o.DialRetry <= 0 {
		return DefaultDialRetry
	}
	return o.DialRetry
}

func (o WorkOptions) reconnects() int {
	if o.Reconnects == 0 {
		return DefaultReconnects
	}
	if o.Reconnects < 0 {
		return 0
	}
	return o.Reconnects
}

func (o WorkOptions) ioTimeout() time.Duration {
	if o.IOTimeout <= 0 {
		return DefaultIOTimeout
	}
	return o.IOTimeout
}

func (o WorkOptions) dialFunc() func(ctx context.Context, addr string) (net.Conn, error) {
	if o.Dial != nil {
		return o.Dial
	}
	var d net.Dialer
	return func(ctx context.Context, addr string) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	}
}

// terminalError marks a slot failure that reconnecting cannot fix — a
// rejected handshake (bad token, protocol skew) or an untrusted
// coordinator certificate. The slot surfaces it immediately instead of
// burning its reconnect budget.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// testHookBeforeReport, when non-nil, runs after a job's runner returns
// and before its result frame is written — the window a graceful drain
// must not tear (see TestDrainRaceStillDeliversResult).
var testHookBeforeReport func()

// Work runs a sweep worker against the coordinator at addr until the
// coordinator drains it (an explicit Bye) or ctx is cancelled.
// Cancellation drains gracefully: a job already running is finished
// and its result delivered before the slot disconnects — SIGTERM never
// forfeits completed work. A slot whose connection is lost to a
// transport error re-dials with jittered backoff and resumes pulling,
// bounded by WorkOptions.Reconnects consecutive failures. It returns nil
// on a clean drain and the first slot failure otherwise.
func Work(ctx context.Context, addr string, run JobRunner, opt WorkOptions) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for s := 0; s < opt.slots(); s++ {
		name := opt.Name
		if opt.slots() > 1 {
			name = fmt.Sprintf("%s/%d", opt.Name, s)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := workSlot(ctx, addr, run, name, opt); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return first
}

// workSlot runs one pull loop across connection eras: dial, handshake,
// Ready→Job→Result rounds, and on a non-drain transport loss a jittered
// reconnect. attempts counts consecutive failed eras; a successful
// handshake resets it, so the budget bounds how long the slot chases a
// dead coordinator, not how many transient faults a long campaign
// weathers.
func workSlot(ctx context.Context, addr string, run JobRunner, name string, opt WorkOptions) error {
	jitter := slotSeed(name)
	attempts := 0
	for {
		handshaked, err := slotConn(ctx, addr, run, name, attempts, opt)
		if err == nil || ctx.Err() != nil {
			return nil // drained (coordinator Bye/close or graceful cancel)
		}
		var term *terminalError
		if errors.As(err, &term) {
			return term.err
		}
		if handshaked {
			attempts = 0
		}
		attempts++
		if attempts > opt.reconnects() {
			return fmt.Errorf("dsweep: slot %s: %d consecutive connection failures (budget %d): %w",
				name, attempts, opt.reconnects(), err)
		}
		select {
		case <-time.After(reconnectDelay(jitter, attempts)):
		case <-ctx.Done():
			return nil
		}
	}
}

// slotConn runs one connection era. It reports whether the handshake
// completed (for the reconnect budget) and returns nil only on a clean
// drain: an explicit coordinator Bye or graceful cancellation.
func slotConn(ctx context.Context, addr string, run JobRunner, name string, era int, opt WorkOptions) (handshaked bool, err error) {
	conn, err := dial(ctx, addr, opt.dialFunc(), opt.dialRetry(), slotSeed(name)^uint64(era))
	if err != nil {
		return false, err
	}
	defer conn.Close()
	enableKeepAlive(conn)
	iot := opt.ioTimeout()

	// busy is false while the slot waits for a job; cancellation then
	// closes the connection to unblock the read. While a job is running
	// — or its finished result is still being reported — the connection
	// stays up so completed work is never torn by a graceful drain.
	var busy atomic.Bool
	stop := context.AfterFunc(ctx, func() {
		if !busy.Load() {
			conn.Close()
		}
	})
	defer stop()

	if err := writeMsgTimeout(conn, iot, MsgHello, helloMsg{Proto: protoVersion, Name: name, Token: opt.Token, Attempt: era}); err != nil {
		return false, drainErr(ctx, fmt.Errorf("dsweep: hello: %w", err))
	}
	typ, payload, err := readFrameTimeout(conn, iot)
	if err != nil {
		return false, drainErr(ctx, fmt.Errorf("dsweep: hello reply: %w", err))
	}
	var hello helloMsg
	if typ == MsgBye {
		// The coordinator refused the handshake — wrong token or protocol
		// skew. Deterministic: reconnecting would only be refused again.
		return false, &terminalError{fmt.Errorf("dsweep: coordinator rejected the handshake (token or protocol %d mismatch)", protoVersion)}
	}
	if typ != MsgHello {
		return false, fmt.Errorf("dsweep: expected hello reply, got %v", typ)
	}
	if err := decodeMsg(typ, payload, &hello); err != nil {
		return false, err
	}
	if hello.Proto != protoVersion {
		return false, &terminalError{fmt.Errorf("dsweep: coordinator speaks protocol %d, want %d", hello.Proto, protoVersion)}
	}
	handshaked = true

	for {
		if ctx.Err() != nil {
			return handshaked, nil // graceful drain: stop pulling, leave quietly
		}
		if err := writeMsgTimeout(conn, iot, MsgReady, nil); err != nil {
			return handshaked, drainErr(ctx, fmt.Errorf("dsweep: ready: %w", err))
		}
		// The job wait is unbounded: an idle coordinator queues nothing
		// for arbitrarily long, and keepalives cover a dead peer. A bare
		// EOF here is NOT a drain — the protocol's only clean goodbye is
		// an explicit Bye — it is a coordinator crash or connection loss,
		// so it feeds the reconnect loop like any other transport fault
		// (which is how a slot survives a coordinator restart).
		typ, payload, err := readFrameTimeout(conn, 0)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("dsweep: pull: coordinator connection closed: %w", err)
			} else {
				err = fmt.Errorf("dsweep: pull: %w", err)
			}
			return handshaked, drainErr(ctx, err)
		}
		switch typ {
		case MsgBye:
			return handshaked, nil
		case MsgJob:
			var job jobMsg
			if err := decodeMsg(typ, payload, &job); err != nil {
				return handshaked, err
			}
			// The job runs to completion even under cancellation
			// (graceful drain): context.WithoutCancel keeps the runner's
			// ctx values without its deadline. busy stays true through
			// the report write, so a cancellation landing between the
			// runner returning and the result frame going out cannot
			// close the connection under the finished job.
			busy.Store(true)
			cell, rerr := run(context.WithoutCancel(ctx), job.Spec, job.Idx)
			if testHookBeforeReport != nil {
				testHookBeforeReport()
			}
			if rerr != nil {
				err = writeMsgTimeout(conn, iot, MsgFail, failMsg{ID: job.ID, Error: rerr.Error()})
			} else {
				res := resultMsg{ID: job.ID, Cell: cell}
				if opt.CacheStats != nil {
					counts := opt.CacheStats()
					res.Cache = &counts
				}
				err = writeMsgTimeout(conn, iot, MsgResult, res)
			}
			busy.Store(false)
			if err != nil {
				return handshaked, drainErr(ctx, fmt.Errorf("dsweep: report job %d: %w", job.ID, err))
			}
			if ctx.Err() != nil {
				return handshaked, nil // drained after delivering the running job
			}
		default:
			return handshaked, fmt.Errorf("dsweep: expected job, got %v", typ)
		}
	}
}

// drainErr maps transport errors that raced a graceful drain (the
// cancellation handler closed the connection under us) to a clean exit.
func drainErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// dial reaches the coordinator, retrying with deterministic per-slot
// jittered backoff within the budget so worker processes may start
// before the coordinator's listener is up — and so N slots launched (or
// reconnecting) together do not re-dial in lockstep. It reports the last
// attempt's error, unless that attempt failed only because the budget
// ran out under it: then the attempt before it says why dialing failed.
// A certificate the worker does not trust ends the dial at once, as a
// terminalError.
func dial(ctx context.Context, addr string, dialOne func(ctx context.Context, addr string) (net.Conn, error), budget time.Duration, seed uint64) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	delay := 50 * time.Millisecond
	var prev error
	for attempt := 0; ; attempt++ {
		dctx, dcancel := context.WithDeadline(ctx, deadline)
		conn, err := dialOne(dctx, addr)
		expired := dctx.Err() != nil
		dcancel()
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var untrusted *tls.CertificateVerificationError // wraps the x509 cause
		if errors.As(err, &untrusted) {
			return nil, &terminalError{fmt.Errorf("dsweep: dial %s: %w", addr, err)}
		}
		if expired && prev != nil {
			err = prev
		}
		prev = err
		sleep := delay + backoffJitter(seed, attempt, delay)
		if expired || time.Now().Add(sleep).After(deadline) {
			return nil, fmt.Errorf("dsweep: dial %s: %w", addr, err)
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if delay < time.Second {
			delay *= 2
		}
	}
}

// reconnectDelay is the backoff before reconnection attempt n (1-based):
// capped exponential growth plus the slot's deterministic jitter, so a
// fleet of slots losing one coordinator never thunders back in lockstep.
func reconnectDelay(seed uint64, n int) time.Duration {
	base := 100 * time.Millisecond
	for i := 1; i < n && base < 2*time.Second; i++ {
		base *= 2
	}
	if base > 2*time.Second {
		base = 2 * time.Second
	}
	return base + backoffJitter(seed, n, base)
}

// backoffJitter draws a deterministic jitter in [0, base/2) from the
// slot's seed and the attempt number — stable across runs (no global
// RNG), distinct across slots.
func backoffJitter(seed uint64, attempt int, base time.Duration) time.Duration {
	if base <= 1 {
		return 0
	}
	return time.Duration(splitmix.Hash(seed^uint64(attempt)) % uint64(base/2))
}

// slotSeed hashes a slot name into its jitter seed.
func slotSeed(name string) uint64 {
	h := uint64(len(name))
	for i := 0; i < len(name); i++ {
		h = splitmix.Hash(h ^ uint64(name[i]))
	}
	return h
}

// enableKeepAlive turns on TCP keepalives so a half-open peer (machine
// gone without a FIN) is eventually detected even on the protocol's
// unbounded idle waits. A TLS connection is unwrapped to the TCP
// connection beneath it.
func enableKeepAlive(conn net.Conn) {
	if tc, ok := conn.(*tls.Conn); ok {
		conn = tc.NetConn()
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
}
