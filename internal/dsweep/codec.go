// Package dsweep distributes sweep jobs across processes: a coordinator
// owns the grid and hands (spec, index) jobs to worker processes over a
// TCP protocol of length-prefixed, CRC32-framed messages (the framing
// idiom of internal/hmc's packet codec).
//
// The coordinator side plugs into the sweep engine as a blocking job
// dispatcher: every job it enqueues is pulled by exactly one worker (work
// stealing — a fast worker simply pulls more jobs), executed remotely,
// and its result delivered back in index order by the sweep layer, so
// stdout stays byte-identical at any worker topology. A worker that
// disconnects or goes silent past its lease forfeits the job, which is
// requeued for the surviving workers; a worker that *reports* a job
// error does not trigger a requeue — simulation failures are
// deterministic, so retrying them elsewhere would only repeat the error.
package dsweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire framing
//
// Every protocol message is one frame:
//
//	[0:4)        magic "DSWP"
//	[4]          version (currently 1)
//	[5]          message type (MsgHello … MsgBye)
//	[6:8)        reserved, must be zero
//	[8:12)       payload length N (uint32, ≤ MaxPayload)
//	[12:12+N)    payload (JSON message body; empty for bare signals)
//	[12+N:16+N)  CRC-32 (IEEE) over bytes [0:12+N)
//
// The decoder validates magic, version, type, reserved bytes and length
// before trusting N, and the trailing CRC before trusting the payload, so
// a truncated, corrupted or oversized frame is rejected — never acted on.

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol messages. Hello opens a connection in both directions; Ready,
// Result and Fail flow worker→coordinator; Job and Bye coordinator→worker.
const (
	MsgHello  MsgType = 1 + iota // handshake: protocol version + peer name
	MsgReady                     // worker pulls one job
	MsgJob                       // coordinator ships a job
	MsgResult                    // worker returns a completed job
	MsgFail                      // worker reports a job error
	MsgBye                       // coordinator drains the worker: no more work
	msgTypeEnd
)

func (t MsgType) valid() bool { return t >= MsgHello && t < msgTypeEnd }

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgReady:
		return "ready"
	case MsgJob:
		return "job"
	case MsgResult:
		return "result"
	case MsgFail:
		return "fail"
	case MsgBye:
		return "bye"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

const (
	frameHeaderBytes  = 12
	frameTrailerBytes = 4
	// MaxPayload bounds one frame's payload: large enough for a full
	// simulation result, small enough that a corrupt length field cannot
	// make the reader allocate gigabytes.
	MaxPayload = 16 << 20
)

// frameMagic identifies a dsweep protocol frame.
var frameMagic = [4]byte{'D', 'S', 'W', 'P'}

// frameVersion is the current wire-format version; both ends reject a
// mismatch at decode time, so a version skew fails fast and loudly.
const frameVersion = 1

// ErrBadFrame reports a frame the decoder rejected; errors.Is matches it
// for every framing failure (magic, version, type, length, CRC).
var ErrBadFrame = errors.New("dsweep: bad frame")

// EncodeFrame serializes one protocol message into its wire frame.
func EncodeFrame(typ MsgType, payload []byte) ([]byte, error) {
	if !typ.valid() {
		return nil, fmt.Errorf("%w: unknown message type %d", ErrBadFrame, uint8(typ))
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds %d", ErrBadFrame, len(payload), MaxPayload)
	}
	buf := make([]byte, frameHeaderBytes+len(payload)+frameTrailerBytes)
	copy(buf[0:4], frameMagic[:])
	buf[4] = frameVersion
	buf[5] = byte(typ)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	copy(buf[frameHeaderBytes:], payload)
	end := frameHeaderBytes + len(payload)
	binary.LittleEndian.PutUint32(buf[end:], crc32.ChecksumIEEE(buf[:end]))
	return buf, nil
}

// decodeHeader validates a frame header and returns the message type and
// payload length it announces.
func decodeHeader(hdr []byte) (MsgType, int, error) {
	if len(hdr) < frameHeaderBytes {
		return 0, 0, fmt.Errorf("%w: header %d bytes, want %d", ErrBadFrame, len(hdr), frameHeaderBytes)
	}
	if [4]byte(hdr[0:4]) != frameMagic {
		return 0, 0, fmt.Errorf("%w: magic %q", ErrBadFrame, hdr[0:4])
	}
	if hdr[4] != frameVersion {
		return 0, 0, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, hdr[4], frameVersion)
	}
	typ := MsgType(hdr[5])
	if !typ.valid() {
		return 0, 0, fmt.Errorf("%w: unknown message type %d", ErrBadFrame, hdr[5])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return 0, 0, fmt.Errorf("%w: reserved bytes set", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, n, MaxPayload)
	}
	return typ, int(n), nil
}

// DecodeFrame parses exactly one wire frame from buf. Every reject wraps
// ErrBadFrame; a decoded frame re-encodes to the identical bytes.
func DecodeFrame(buf []byte) (MsgType, []byte, error) {
	typ, n, err := decodeHeader(buf)
	if err != nil {
		return 0, nil, err
	}
	if len(buf) != frameHeaderBytes+n+frameTrailerBytes {
		return 0, nil, fmt.Errorf("%w: frame length %d, want %d", ErrBadFrame, len(buf), frameHeaderBytes+n+frameTrailerBytes)
	}
	end := frameHeaderBytes + n
	if got, want := binary.LittleEndian.Uint32(buf[end:]), crc32.ChecksumIEEE(buf[:end]); got != want {
		return 0, nil, fmt.Errorf("%w: CRC %#x, computed %#x", ErrBadFrame, got, want)
	}
	payload := make([]byte, n)
	copy(payload, buf[frameHeaderBytes:end])
	return typ, payload, nil
}

// WriteFrame encodes and writes one message as a single Write, so a
// crashed sender tears at most the frame in flight.
func WriteFrame(w io.Writer, typ MsgType, payload []byte) error {
	buf, err := EncodeFrame(typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads exactly one frame from the stream. The header is
// validated before the payload is allocated, so a corrupt length cannot
// balloon memory; a short read surfaces as the transport's error. A clean
// EOF before any header byte is returned as io.EOF so callers can tell a
// closed peer from a torn frame (io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	hdr := make([]byte, frameHeaderBytes)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	typ, n, err := decodeHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	rest := make([]byte, n+frameTrailerBytes)
	if _, err := io.ReadFull(r, rest); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	crc := crc32.ChecksumIEEE(hdr)
	crc = crc32.Update(crc, crc32.IEEETable, rest[:n])
	if got := binary.LittleEndian.Uint32(rest[n:]); got != crc {
		return 0, nil, fmt.Errorf("%w: CRC %#x, computed %#x", ErrBadFrame, got, crc)
	}
	return typ, rest[:n], nil
}
