package dsweep

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options tunes a Coordinator.
type Options struct {
	// Lease bounds how long a worker may hold one job: a worker silent
	// for Lease after receiving a job is presumed dead, its connection is
	// closed and the job is requeued for the surviving workers. Zero
	// means DefaultLease. Set it above the worst-case job run time — a
	// healthy-but-slow worker that blows the lease has its job recomputed
	// elsewhere (correct, but wasted work).
	Lease time.Duration
	// MaxAttempts caps how many workers may be lost on one job before the
	// job is failed instead of requeued, so a job that reliably crashes
	// its host cannot starve the sweep forever. Zero means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Token, when non-empty, authenticates workers: a Hello whose token
	// does not match (constant-time compare) is answered with Bye,
	// counted in Status().AuthRejects and disconnected — without
	// disturbing the campaign the authenticated workers are running. An
	// empty Token accepts every worker (the trusted-network default).
	Token string
	// IOTimeout bounds every frame write (hello reply, job, bye) and the
	// handshake read, so a stalled or half-open peer can never wedge a
	// connection handler. Idle waits — a handshaked worker between jobs —
	// remain unbounded by design, covered by TCP keepalives. 0 means
	// DefaultIOTimeout.
	IOTimeout time.Duration
	// Logf, when non-nil, receives coordinator lifecycle chatter (worker
	// connects, losses, requeues). It must be safe for concurrent use.
	Logf func(format string, args ...any)
}

// Defaults for Options.
const (
	DefaultLease       = 2 * time.Minute
	DefaultMaxAttempts = 3
)

func (o Options) lease() time.Duration {
	if o.Lease <= 0 {
		return DefaultLease
	}
	return o.Lease
}

func (o Options) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return o.MaxAttempts
}

func (o Options) ioTimeout() time.Duration {
	if o.IOTimeout <= 0 {
		return DefaultIOTimeout
	}
	return o.IOTimeout
}

// jobOutcome is one job's terminal state.
type jobOutcome struct {
	cell json.RawMessage
	err  error
}

// job is one enqueued sweep job. Its lifecycle is queued → leased →
// settled, with leased → queued again on every worker loss (requeue).
type job struct {
	id       uint64
	spec     []byte
	idx      int
	attempts int  // workers lost while holding this job
	settled  bool // outcome delivered (or caller gone); late outcomes are discarded
	done     chan jobOutcome
}

// workerStats aggregates one worker name's history across connections.
type workerStats struct {
	connected  int // live handshaked connections bearing this name
	connects   uint64
	reconnects uint64
	completed  uint64      // jobs delivered
	fails      uint64      // jobs reported as deterministic failures
	cache      CacheCounts // last counters reported in a Result frame
}

// leaseRec is one in-flight job's lease: who holds it and since when.
type leaseRec struct {
	worker string
	since  time.Time
}

// Coordinator owns a distributed sweep's pending jobs and serves them to
// worker connections with work-stealing dispatch: every Ready worker
// pulls the oldest pending job, so fast workers naturally take more of
// the grid. It implements the sweep layer's Dispatcher contract — RunJob
// blocks until some worker completes the job, across any number of
// requeues.
//
// A Coordinator is safe for concurrent use; one instance serves all of a
// process's sweeps in sequence (grid identity travels inside the opaque
// spec, so interleaved grids cannot be confused).
type Coordinator struct {
	opt Options

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*job // pending jobs; requeues go to the front
	nextID      uint64
	closed      bool
	listeners   []net.Listener
	workers     int // handshaked worker connections
	authRejects uint64
	reconnects  uint64
	requeues    uint64
	perWorker   map[string]*workerStats
	inflight    map[uint64]*leaseRec
	handlers    sync.WaitGroup // live Handle calls, for the Close drain
}

// NewCoordinator builds a Coordinator with the given options.
func NewCoordinator(opt Options) *Coordinator {
	c := &Coordinator{
		opt:       opt,
		perWorker: make(map[string]*workerStats),
		inflight:  make(map[uint64]*leaseRec),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// WorkerStatus is one worker name's row in a Status snapshot.
type WorkerStatus struct {
	Name       string
	Connected  bool
	Connects   uint64 // handshakes, including reconnects
	Reconnects uint64
	Completed  uint64      // jobs delivered
	Fails      uint64      // deterministic job failures reported
	Cache      CacheCounts // trace-cache counters from the last Result frame
	LeaseAge   time.Duration
}

// Status is a point-in-time snapshot of a coordinator's campaign: queue
// depth, in-flight leases, per-worker throughput and the fault counters
// (auth rejects, reconnects, requeues). It is the observability hook a
// serving daemon fronts; hmccoal -serve prints it on SIGUSR1.
type Status struct {
	Queued      int // jobs waiting for a puller
	InFlight    int // jobs currently leased
	Workers     int // connected worker connections
	AuthRejects uint64
	Reconnects  uint64
	Requeues    uint64
	PerWorker   []WorkerStatus // sorted by name
}

// Status snapshots the coordinator's current state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Queued:      len(c.queue),
		InFlight:    len(c.inflight),
		Workers:     c.workers,
		AuthRejects: c.authRejects,
		Reconnects:  c.reconnects,
		Requeues:    c.requeues,
	}
	oldest := make(map[string]time.Time, len(c.inflight))
	for _, lr := range c.inflight {
		if t, ok := oldest[lr.worker]; !ok || lr.since.Before(t) {
			oldest[lr.worker] = lr.since
		}
	}
	for name, ws := range c.perWorker {
		row := WorkerStatus{
			Name:       name,
			Connected:  ws.connected > 0,
			Connects:   ws.connects,
			Reconnects: ws.reconnects,
			Completed:  ws.completed,
			Fails:      ws.fails,
			Cache:      ws.cache,
		}
		if t, ok := oldest[name]; ok {
			row.LeaseAge = time.Since(t)
		}
		s.PerWorker = append(s.PerWorker, row)
	}
	sort.Slice(s.PerWorker, func(i, j int) bool { return s.PerWorker[i].Name < s.PerWorker[j].Name })
	return s
}

// String renders a Status as the multi-line stderr block the -serve
// SIGUSR1 handler prints.
func (s Status) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dsweep status: %d queued, %d in flight, %d workers connected, %d auth rejects, %d reconnects, %d requeues",
		s.Queued, s.InFlight, s.Workers, s.AuthRejects, s.Reconnects, s.Requeues)
	for _, w := range s.PerWorker {
		state := "gone"
		if w.Connected {
			state = "connected"
		}
		fmt.Fprintf(&b, "\n  %s: %s, %d connects (%d reconnects), %d jobs, %d fails",
			w.Name, state, w.Connects, w.Reconnects, w.Completed, w.Fails)
		if c := w.Cache; c.Hits+c.Misses+c.Evictions > 0 {
			fmt.Fprintf(&b, ", trace cache %d hits / %d misses / %d evictions", c.Hits, c.Misses, c.Evictions)
		}
		if w.LeaseAge > 0 {
			fmt.Fprintf(&b, ", lease age %v", w.LeaseAge.Round(time.Millisecond))
		}
	}
	return b.String()
}

// Serve accepts worker connections on ln until the coordinator is
// closed, handling each in its own goroutine. It returns nil once Close
// shuts the listener down.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return errors.New("dsweep: coordinator closed")
	}
	c.listeners = append(c.listeners, ln)
	c.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("dsweep: accept: %w", err)
		}
		go c.Handle(conn)
	}
}

// closeDrainGrace bounds how long Close waits for worker connections to
// drain their goodbye. Healthy workers Bye within a round-trip; the grace
// only matters when one is hung or mid-job, and forfeiting its farewell
// then is fine — any job it held was already requeued or settled.
const closeDrainGrace = 5 * time.Second

// Close shuts the coordinator down: listeners close, still-queued jobs
// (and their blocked RunJob callers) fail with a closed-coordinator
// error, and worker connections drain through the protocol — each
// handler's next take returns nil, so the worker gets a clean Bye rather
// than a connection reset. Close waits up to closeDrainGrace for the
// handlers to finish that farewell, then returns regardless.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	queued := c.queue
	c.queue = nil
	lns := c.listeners
	c.cond.Broadcast()
	c.mu.Unlock()

	for _, j := range queued {
		c.deliver(j, jobOutcome{err: errors.New("dsweep: coordinator closed")})
	}
	for _, ln := range lns {
		ln.Close()
	}

	drained := make(chan struct{})
	go func() {
		c.handlers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(closeDrainGrace):
		c.logf("dsweep: close: gave up waiting for worker connections to drain")
	}
	return nil
}

// RunJob enqueues one sweep job and blocks until a worker completes it
// (across any number of requeues) or ctx is cancelled. It is the sweep
// layer's remote dispatcher: spec is the opaque JSON grid description, i
// the grid index to execute, and the result is the job's JSON cell.
func (c *Coordinator) RunJob(ctx context.Context, spec []byte, i int) (json.RawMessage, error) {
	j := &job{spec: spec, idx: i, done: make(chan jobOutcome, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("dsweep: coordinator closed")
	}
	c.nextID++
	j.id = c.nextID
	c.queue = append(c.queue, j)
	c.cond.Signal()
	c.mu.Unlock()

	select {
	case o := <-j.done:
		return o.cell, o.err
	case <-ctx.Done():
		// Settle the job so a late worker outcome is discarded; if it is
		// still queued, pull it before any worker wastes time on it.
		c.mu.Lock()
		if !j.settled {
			j.settled = true
			c.dequeueLocked(j)
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// dequeueLocked removes j from the pending queue if present.
func (c *Coordinator) dequeueLocked(j *job) {
	for i, q := range c.queue {
		if q == j {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// deliver settles j with its outcome; late outcomes (after a lease
// requeue already settled the job elsewhere, or after the caller's ctx
// cancelled) are discarded. Any lease record for j is released.
func (c *Coordinator) deliver(j *job, o jobOutcome) {
	c.mu.Lock()
	delete(c.inflight, j.id)
	if j.settled {
		c.mu.Unlock()
		return
	}
	j.settled = true
	c.mu.Unlock()
	j.done <- o
}

// requeue returns a job forfeited by a lost worker to the front of the
// queue — front, so a long-queued job does not also go to the back of the
// line — failing it once MaxAttempts workers have been lost on it.
func (c *Coordinator) requeue(j *job, cause error) {
	c.mu.Lock()
	delete(c.inflight, j.id)
	if j.settled || c.closed {
		c.mu.Unlock()
		return
	}
	j.attempts++
	c.requeues++
	if j.attempts >= c.opt.maxAttempts() {
		c.mu.Unlock()
		c.deliver(j, jobOutcome{err: fmt.Errorf("dsweep: job %d lost %d workers (last: %v)", j.id, j.attempts, cause)})
		return
	}
	c.queue = append([]*job{j}, c.queue...)
	c.cond.Signal()
	c.mu.Unlock()
	c.logf("dsweep: requeued job %d after worker loss (%v)", j.id, cause)
}

// lease records j as in flight on the named worker's connection.
func (c *Coordinator) lease(j *job, worker string) {
	c.mu.Lock()
	c.inflight[j.id] = &leaseRec{worker: worker, since: time.Now()}
	c.mu.Unlock()
}

// take blocks until a pending job is available and leases it to the
// caller; it returns nil once the coordinator is closed.
func (c *Coordinator) take() *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return nil
	}
	j := c.queue[0]
	c.queue = c.queue[1:]
	return j
}

// Handle serves one worker connection until it drains, errors out or
// blows a lease. Serve calls it for every accepted connection; tests may
// drive it directly over an in-memory pipe.
func (c *Coordinator) Handle(conn net.Conn) {
	c.handlers.Add(1)
	defer c.handlers.Done()
	defer conn.Close()
	enableKeepAlive(conn)

	name, err := c.serveWorker(conn)
	c.mu.Lock()
	if name != "" {
		c.workers--
		if ws := c.perWorker[name]; ws != nil {
			ws.connected--
		}
	}
	closed := c.closed
	c.mu.Unlock()
	if err != nil && !closed {
		// Before the handshake completes name is empty; a refusal's error
		// names the worker itself.
		if name != "" {
			err = fmt.Errorf("worker %s: %w", name, err)
		}
		c.logf("dsweep: %v", err)
	}
}

// checkToken compares a worker's presented token against the configured
// one in constant time, so the comparison leaks nothing about how much of
// a guessed token matched.
func (c *Coordinator) checkToken(got string) bool {
	return subtle.ConstantTimeCompare([]byte(got), []byte(c.opt.Token)) == 1
}

// serveWorker runs the coordinator side of the protocol on one
// connection: handshake (version, then token), then Ready→Job→Result
// rounds until the worker disconnects or the queue closes. Any transport
// or protocol failure while a job is leased requeues the job; every
// write and every bounded-expectation read carries a deadline, so a
// stalled peer costs at most IOTimeout (or the lease), never a handler.
func (c *Coordinator) serveWorker(conn net.Conn) (string, error) {
	lease := c.opt.lease()
	iot := c.opt.ioTimeout()

	// Handshake, deadline-bounded so a silent connection cannot pin the
	// handler.
	typ, payload, err := readFrameTimeout(conn, iot)
	if err != nil {
		return "", fmt.Errorf("hello: %w", err)
	}
	var hello helloMsg
	if typ != MsgHello {
		return "", fmt.Errorf("expected hello, got %v", typ)
	}
	if err := decodeMsg(typ, payload, &hello); err != nil {
		return "", err
	}
	hello.Name = truncate(hello.Name, MaxNameLen)
	if hello.Proto != protoVersion {
		writeMsgTimeout(conn, iot, MsgBye, nil)
		return "", fmt.Errorf("worker %q speaks protocol %d, want %d", hello.Name, hello.Proto, protoVersion)
	}
	if !c.checkToken(hello.Token) {
		c.mu.Lock()
		c.authRejects++
		c.mu.Unlock()
		writeMsgTimeout(conn, iot, MsgBye, nil)
		return "", fmt.Errorf("worker %q presented a bad token", hello.Name)
	}
	if err := writeMsgTimeout(conn, iot, MsgHello, helloMsg{Proto: protoVersion, Name: "coordinator"}); err != nil {
		return "", fmt.Errorf("hello reply: %w", err)
	}
	c.mu.Lock()
	c.workers++
	ws := c.perWorker[hello.Name]
	if ws == nil {
		ws = &workerStats{}
		c.perWorker[hello.Name] = ws
	}
	ws.connected++
	ws.connects++
	if hello.Attempt > 0 {
		ws.reconnects++
		c.reconnects++
	}
	c.mu.Unlock()
	if hello.Attempt > 0 {
		c.logf("dsweep: worker %s reconnected (attempt %d)", hello.Name, hello.Attempt)
	} else {
		c.logf("dsweep: worker %s connected", hello.Name)
	}

	for {
		// Wait for the worker to pull work; an idle worker may sit here
		// arbitrarily long, so no deadline applies (keepalives cover a
		// dead peer).
		typ, _, err := readFrameTimeout(conn, 0)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return hello.Name, nil // worker drained and left
			}
			return hello.Name, fmt.Errorf("ready: %w", err)
		}
		if typ != MsgReady {
			return hello.Name, fmt.Errorf("expected ready, got %v", typ)
		}

		j := c.take()
		if j == nil {
			writeMsgTimeout(conn, iot, MsgBye, nil)
			return hello.Name, nil
		}
		c.lease(j, hello.Name)
		if err := writeMsgTimeout(conn, iot, MsgJob, jobMsg{ID: j.id, Spec: j.spec, Idx: j.idx}); err != nil {
			c.requeue(j, fmt.Errorf("send to %s: %w", hello.Name, err))
			return hello.Name, fmt.Errorf("job: %w", err)
		}

		// The lease: the worker must produce the job's outcome within the
		// deadline or it is presumed dead and the job is requeued.
		typ, payload, err := readFrameTimeout(conn, lease)
		if err != nil {
			c.requeue(j, fmt.Errorf("worker %s: %w", hello.Name, err))
			return hello.Name, fmt.Errorf("job %d: %w", j.id, err)
		}
		switch typ {
		case MsgResult:
			var res resultMsg
			if err := decodeMsg(typ, payload, &res); err != nil {
				c.requeue(j, err)
				return hello.Name, err
			}
			if res.ID != j.id {
				err := fmt.Errorf("result for job %d while %d is leased", res.ID, j.id)
				c.requeue(j, err)
				return hello.Name, err
			}
			if len(res.Cell) == 0 || string(res.Cell) == "null" {
				// A malformed result is a worker bug, not a crash: fail
				// the job rather than recompute the same bug elsewhere.
				c.deliver(j, jobOutcome{err: fmt.Errorf("dsweep: worker %s returned no cell for job %d", hello.Name, j.id)})
				continue
			}
			c.deliver(j, jobOutcome{cell: res.Cell})
			c.mu.Lock()
			ws.completed++
			if res.Cache != nil {
				ws.cache = *res.Cache
			}
			c.mu.Unlock()
		case MsgFail:
			var fail failMsg
			if err := decodeMsg(typ, payload, &fail); err != nil {
				c.requeue(j, err)
				return hello.Name, err
			}
			// Job errors are deterministic; requeueing would repeat them.
			c.deliver(j, jobOutcome{err: fmt.Errorf("dsweep: worker %s: %s", hello.Name, truncate(fail.Error, MaxErrorLen))})
			c.mu.Lock()
			ws.fails++
			c.mu.Unlock()
		default:
			err := fmt.Errorf("expected result, got %v", typ)
			c.requeue(j, err)
			return hello.Name, err
		}
	}
}
