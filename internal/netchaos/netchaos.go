// Package netchaos injects deterministic, seeded network faults into
// net.Conn streams, listeners and dialers — the dsweep wire's analogue of
// internal/fault's link-fault injector. It exists to prove the
// distributed sweep plane survives a hostile network: wrap the
// coordinator's listener or a worker's dialer in an Injector and a full
// campaign must still finish byte-identical to a local run, because every
// injected reset, stalled dial, latency spike, short write or corrupted
// frame is a failure the protocol already recovers from (reconnect,
// requeue, CRC reject).
//
// Decisions are counter-based, mirroring internal/fault: every draw is a
// pure function of (seed, connection serial, operation counter, fault
// kind) hashed through SplitMix64 (internal/splitmix), so a given
// connection's fault sequence replays identically for a fixed seed
// regardless of wall-clock timing. (Across a whole campaign the mapping
// of connections to serials depends on accept/dial order, so chaos runs
// are reproducible per connection — the campaign's *output* is identical
// for a different reason: the sweep plane delivers every grid index
// exactly once under any fault pattern.)
package netchaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"hmccoal/internal/splitmix"
)

// Config parameterizes chaos injection. The zero value injects nothing.
type Config struct {
	// Seed keys every fault decision.
	Seed uint64
	// DialFail is the per-attempt probability that a dial fails before a
	// connection exists (the coordinator's address unreachable for one
	// attempt — the worker's dial retry loop must absorb it).
	DialFail float64
	// Reset is the per-I/O-operation probability that the connection dies
	// mid-stream: the op fails with ErrInjectedReset and the underlying
	// connection is closed, so the peer sees a hard loss too.
	Reset float64
	// ShortWrite is the per-write probability that only a prefix of the
	// buffer reaches the wire before the connection dies — the torn-frame
	// case a crashed sender produces.
	ShortWrite float64
	// Corrupt is the per-write probability that one byte of the buffer is
	// flipped in flight. The bytes still arrive, so only the receiver's
	// frame CRC stands between the flip and silent corruption.
	Corrupt float64
	// Delay, when positive, adds a deterministic latency draw in
	// [0, Delay) to every I/O operation — the slow-peer case that read
	// and write deadlines must bound.
	Delay time.Duration
}

// Enabled reports whether any fault can ever be injected.
func (c Config) Enabled() bool {
	return c.DialFail > 0 || c.Reset > 0 || c.ShortWrite > 0 || c.Corrupt > 0 || c.Delay > 0
}

// Validate rejects configurations that cannot describe probabilities.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"dialfail", c.DialFail},
		{"reset", c.Reset},
		{"shortwrite", c.ShortWrite},
		{"corrupt", c.Corrupt},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("netchaos: %s rate %v outside [0,1]", p.name, p.v)
		}
	}
	if c.Delay < 0 {
		return fmt.Errorf("netchaos: negative delay %v", c.Delay)
	}
	return nil
}

// Injected faults carry distinguishable errors so tests (and logs) can
// tell a chaos reset from a genuine transport failure.
var (
	// ErrInjectedReset reports a connection killed mid-operation.
	ErrInjectedReset = errors.New("netchaos: injected connection reset")
	// ErrInjectedDialFail reports a dial attempt failed by the injector.
	ErrInjectedDialFail = errors.New("netchaos: injected dial failure")
	// ErrInjectedShortWrite reports a write torn after a prefix.
	ErrInjectedShortWrite = errors.New("netchaos: injected short write")
)

// Stats counts the faults an Injector has fired, so a chaos test can
// assert the campaign it just passed actually weathered something.
type Stats struct {
	Conns       uint64 // connections wrapped
	DialFails   uint64
	Resets      uint64
	ShortWrites uint64
	Corrupts    uint64
	Delays      uint64
}

// Fault kinds salt the per-operation draw so one operation's independent
// decisions (reset? delay? corrupt?) use distinct hash points.
const (
	kindReset uint64 = iota + 1
	kindShortWrite
	kindCorrupt
	kindDelay
	kindDialFail
	kindDelayAmount
	kindCorruptSite
	kindShortLen
)

// Injector makes seeded per-operation fault decisions. It is safe for
// concurrent use; one Injector typically wraps every connection of one
// side of a campaign.
type Injector struct {
	seed       uint64
	enabled    bool
	delayMax   time.Duration
	dialFail   uint64
	reset      uint64
	shortWrite uint64
	corrupt    uint64

	connSerial atomic.Uint64
	dialSerial atomic.Uint64
	stats      struct {
		conns, dialFails, resets, shortWrites, corrupts, delays atomic.Uint64
	}
}

// New bakes cfg's probabilities into compare thresholds.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		seed:       cfg.Seed,
		enabled:    cfg.Enabled(),
		delayMax:   cfg.Delay,
		dialFail:   splitmix.Threshold(cfg.DialFail),
		reset:      splitmix.Threshold(cfg.Reset),
		shortWrite: splitmix.Threshold(cfg.ShortWrite),
		corrupt:    splitmix.Threshold(cfg.Corrupt),
	}
	return in, nil
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Conns:       in.stats.conns.Load(),
		DialFails:   in.stats.dialFails.Load(),
		Resets:      in.stats.resets.Load(),
		ShortWrites: in.stats.shortWrites.Load(),
		Corrupts:    in.stats.corrupts.Load(),
		Delays:      in.stats.delays.Load(),
	}
}

// Wrap returns c with chaos injection on every Read and Write. The
// wrapped connection forwards deadlines and Close to the original.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	if !in.enabled {
		return c
	}
	in.stats.conns.Add(1)
	return &conn{Conn: c, in: in, id: in.connSerial.Add(1)}
}

// Listen wraps ln so every accepted connection carries chaos injection.
func (in *Injector) Listen(ln net.Listener) net.Listener {
	if !in.enabled {
		return ln
	}
	return &listener{Listener: ln, in: in}
}

// Dialer wraps a dial function with injected dial failures and chaos on
// the returned connections. The base function performs one real dial
// attempt; retry policy stays with the caller.
func (in *Injector) Dialer(base func(ctx context.Context, addr string) (net.Conn, error)) func(ctx context.Context, addr string) (net.Conn, error) {
	if !in.enabled {
		return base
	}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		attempt := in.dialSerial.Add(1)
		if in.hit(in.dialFail, attempt, 0, kindDialFail) {
			in.stats.dialFails.Add(1)
			return nil, fmt.Errorf("%w (attempt %d)", ErrInjectedDialFail, attempt)
		}
		c, err := base(ctx, addr)
		if err != nil {
			return nil, err
		}
		return in.Wrap(c), nil
	}
}

type listener struct {
	net.Listener
	in *Injector
}

func (ln *listener) Accept() (net.Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return ln.in.Wrap(c), nil
}

// conn is one chaos-wrapped connection. Reads and writes share one
// operation counter, so the fault sequence is a function of the
// connection's I/O order alone.
type conn struct {
	net.Conn
	in  *Injector
	id  uint64
	ops atomic.Uint64
}

func (c *conn) Read(b []byte) (int, error) {
	op := c.ops.Add(1)
	c.in.maybeDelay(c.id, op)
	if c.in.hit(c.in.reset, c.id, op, kindReset) {
		c.in.stats.resets.Add(1)
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	return c.Conn.Read(b)
}

func (c *conn) Write(b []byte) (int, error) {
	op := c.ops.Add(1)
	c.in.maybeDelay(c.id, op)
	switch {
	case c.in.hit(c.in.reset, c.id, op, kindReset):
		c.in.stats.resets.Add(1)
		c.Conn.Close()
		return 0, ErrInjectedReset
	case len(b) > 1 && c.in.hit(c.in.shortWrite, c.id, op, kindShortWrite):
		// A prefix reaches the wire, then the connection dies: the peer
		// holds a torn frame and a dead stream, exactly like a sender
		// crashed mid-Write.
		c.in.stats.shortWrites.Add(1)
		n := 1 + int(c.in.draw(c.id, op, kindShortLen)%uint64(len(b)-1))
		if wn, err := c.Conn.Write(b[:n]); err != nil {
			c.Conn.Close()
			return wn, err
		}
		c.Conn.Close()
		return n, ErrInjectedShortWrite
	case len(b) > 0 && c.in.hit(c.in.corrupt, c.id, op, kindCorrupt):
		// Flip one byte in flight; only the receiver's CRC can tell.
		c.in.stats.corrupts.Add(1)
		buf := make([]byte, len(b))
		copy(buf, b)
		site := int(c.in.draw(c.id, op, kindCorruptSite) % uint64(len(buf)))
		buf[site] ^= 1 << (c.in.draw(c.id, op, kindCorruptSite+8) % 8)
		return c.Conn.Write(buf)
	}
	return c.Conn.Write(b)
}

// maybeDelay injects the deterministic latency draw for one operation.
func (in *Injector) maybeDelay(connID, op uint64) {
	if in.delayMax <= 0 {
		return
	}
	d := time.Duration(in.draw(connID, op, kindDelayAmount) % uint64(in.delayMax))
	if d > 0 {
		in.stats.delays.Add(1)
		time.Sleep(d)
	}
}

// hit decides one fault for one operation.
func (in *Injector) hit(thresh, connID, op, kind uint64) bool {
	if thresh == 0 {
		return false
	}
	return in.draw(connID, op, kind) < thresh
}

// draw hashes an operation's identity into a uniform 64-bit value, the
// same counter-based construction as internal/fault.
func (in *Injector) draw(connID, op, kind uint64) uint64 {
	h := splitmix.Hash(in.seed ^ connID)
	h = splitmix.Hash(h ^ op<<8 ^ kind)
	return h
}
