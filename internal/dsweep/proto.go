package dsweep

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// protoVersion is the handshake protocol version, distinct from the frame
// version: the frame layer rejects byte-level skew, the hello rejects
// semantic skew (message meanings, job payload contract). Version 2 ships
// sweep specs as benchmarks × axes instead of one of seven grid kinds;
// version 3 ships one grid index per Job and one cell per Result instead
// of lists of them. An older worker is refused at the hello rather than
// failing every job. Token and Attempt are optional additions — absent
// fields decode to their zero values, so a pre-auth worker still
// interoperates with an open (tokenless) coordinator.
const protoVersion = 3

// Field caps the coordinator enforces on worker-supplied strings, so a
// pathological worker cannot bloat coordinator logs, Status output or
// delivered errors. Oversized values are truncated, not rejected — a
// worker with a verbose hostname is clumsy, not hostile.
const (
	// MaxNameLen bounds a worker's Hello name.
	MaxNameLen = 64
	// MaxErrorLen bounds a Fail message's error text.
	MaxErrorLen = 1024
)

// truncate caps s at max bytes, marking the cut with a trailing ellipsis
// (itself 3 bytes, counted inside the cap).
func truncate(s string, max int) string {
	if len(s) <= max {
		return s
	}
	if max <= 3 {
		return s[:max]
	}
	return s[:max-3] + "…"
}

// helloMsg opens a connection in both directions. Token authenticates the
// worker (compared constant-time against the coordinator's token);
// Attempt is the slot's reconnection era — 0 on the first connection,
// n > 0 on its n-th reconnect — which the coordinator surfaces in
// Status() so operators can see a flaky network from one end.
type helloMsg struct {
	Proto   int    `json:"proto"`
	Name    string `json:"name"`
	Token   string `json:"token,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// jobMsg ships one sweep job: the opaque, JSON-encoded sweep spec (the
// grid's pure description — the worker reconstructs configs and traces
// from it) plus the grid index to execute.
type jobMsg struct {
	ID   uint64          `json:"id"`
	Spec json.RawMessage `json:"spec"`
	Idx  int             `json:"idx"`
}

// CacheCounts are a worker's monotonic trace-cache counters. Each Result
// frame carries the worker process's current values (an additive protocol
// field — absent on old workers, decoding to zeros), so the coordinator's
// Status() shows per-worker cache effectiveness without a separate
// metrics channel.
type CacheCounts struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// resultMsg returns a completed job: its JSON-encoded cell, plus the
// worker's current trace-cache counters.
type resultMsg struct {
	ID    uint64          `json:"id"`
	Cell  json.RawMessage `json:"cell"`
	Cache *CacheCounts    `json:"cache,omitempty"`
}

// failMsg reports a job whose execution failed. The coordinator fails the
// job without requeueing it: job errors are deterministic, so another
// worker would only reproduce them.
type failMsg struct {
	ID    uint64 `json:"id"`
	Error string `json:"error"`
}

// writeMsg JSON-encodes one message body into a frame and writes it. A
// nil body writes an empty payload (bare signals: Ready, Bye).
func writeMsg(w io.Writer, typ MsgType, body any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("dsweep: encode %v: %w", typ, err)
		}
	}
	return WriteFrame(w, typ, payload)
}

// writeMsgTimeout is writeMsg under a write deadline: a peer that has
// stopped draining its socket fails the write within timeout instead of
// blocking the caller forever (the half-open/stalled-peer hardening).
// timeout <= 0 writes without a deadline.
func writeMsgTimeout(conn net.Conn, timeout time.Duration, typ MsgType, body any) error {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return writeMsg(conn, typ, body)
}

// readFrameTimeout is ReadFrame under a read deadline; timeout <= 0
// clears any previous deadline and blocks indefinitely (the protocol's
// deliberate idle waits).
func readFrameTimeout(conn net.Conn, timeout time.Duration) (MsgType, []byte, error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
	} else {
		conn.SetReadDeadline(time.Time{})
	}
	return ReadFrame(conn)
}

// decodeMsg parses a frame payload into the expected message body.
func decodeMsg(typ MsgType, payload []byte, body any) error {
	if err := json.Unmarshal(payload, body); err != nil {
		return fmt.Errorf("dsweep: decode %v: %w", typ, err)
	}
	return nil
}
