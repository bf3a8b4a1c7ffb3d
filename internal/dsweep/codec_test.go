package dsweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// wireSpec and wireCell are a real sweep spec (two timeouts on one
// benchmark) and the shape of a cell, the bodies protocol-3 Job and
// Result frames carry.
const (
	wireSpec = `{"params":{"CPUs":4,"OpsPerCPU":600,"Seed":3,"ThinkScale":0},"benches":["FT"],"axes":[{"name":"timeout","values":["16","28"]}]}`
	wireCell = `{"res":{},"pay":{}}`
)

func mustFrame(t testing.TB, typ MsgType, payload []byte) []byte {
	t.Helper()
	buf, err := EncodeFrame(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		typ     MsgType
		payload string
	}{
		{MsgHello, `{"proto":3,"name":"w"}`},
		{MsgReady, ""},
		{MsgJob, `{"id":7,"spec":` + wireSpec + `,"idx":1}`},
		{MsgResult, `{"id":7,"cell":` + wireCell + `}`},
		{MsgFail, `{"id":7,"error":"boom"}`},
		{MsgBye, ""},
	} {
		buf := mustFrame(t, tc.typ, []byte(tc.payload))
		typ, payload, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", tc.typ, err)
		}
		if typ != tc.typ || string(payload) != tc.payload {
			t.Fatalf("%v: round-trip got (%v, %q)", tc.typ, typ, payload)
		}
		// The stream reader must agree with the strict decoder.
		typ, payload, err = ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%v: read: %v", tc.typ, err)
		}
		if typ != tc.typ || string(payload) != tc.payload {
			t.Fatalf("%v: stream round-trip got (%v, %q)", tc.typ, typ, payload)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	good := mustFrame(t, MsgJob, []byte(`{"id":1}`))
	corrupt := func(off int, val byte) []byte {
		bad := append([]byte(nil), good...)
		bad[off] = val
		return bad
	}
	oversize := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(oversize[8:12], MaxPayload+1)

	for name, buf := range map[string][]byte{
		"empty":           {},
		"short header":    good[:8],
		"truncated":       good[:len(good)-1],
		"trailing byte":   append(append([]byte(nil), good...), 0),
		"bad magic":       corrupt(0, 'X'),
		"bad version":     corrupt(4, 99),
		"zero type":       corrupt(5, 0),
		"unknown type":    corrupt(5, byte(msgTypeEnd)),
		"reserved set":    corrupt(6, 1),
		"oversize length": oversize,
		"flipped payload": corrupt(frameHeaderBytes, 'Z'),
		"flipped crc":     corrupt(len(good)-1, good[len(good)-1]^0xFF),
	} {
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
}

func TestEncodeFrameRejects(t *testing.T) {
	if _, err := EncodeFrame(msgTypeEnd, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("unknown type: want ErrBadFrame, got %v", err)
	}
	if _, err := EncodeFrame(MsgJob, make([]byte, MaxPayload+1)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversize payload: want ErrBadFrame, got %v", err)
	}
}

func TestReadFrameStream(t *testing.T) {
	a := mustFrame(t, MsgReady, nil)
	b := mustFrame(t, MsgFail, []byte(`{"id":2,"error":"x"}`))
	r := bytes.NewReader(append(append([]byte(nil), a...), b...))

	typ, _, err := ReadFrame(r)
	if err != nil || typ != MsgReady {
		t.Fatalf("first frame: (%v, %v)", typ, err)
	}
	typ, payload, err := ReadFrame(r)
	if err != nil || typ != MsgFail || !strings.Contains(string(payload), `"x"`) {
		t.Fatalf("second frame: (%v, %q, %v)", typ, payload, err)
	}
	// A clean close between frames is io.EOF…
	if _, _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("at stream end: want io.EOF, got %v", err)
	}
	// …but a close mid-frame is an unexpected EOF, never a silent accept.
	if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: want io.ErrUnexpectedEOF, got %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(b[:4])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header: want io.ErrUnexpectedEOF, got %v", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ, want := range map[MsgType]string{
		MsgHello: "hello", MsgReady: "ready", MsgJob: "job",
		MsgResult: "result", MsgFail: "fail", MsgBye: "bye",
		msgTypeEnd: "type(7)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", uint8(typ), got, want)
		}
	}
}
