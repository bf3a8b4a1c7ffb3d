package dsweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the wire decoder. Frames
// arrive from the network — whatever a peer (or a corrupted link) sends,
// the decoder must either return a message that re-encodes to the
// identical bytes or reject with ErrBadFrame — never panic, never
// allocate from an untrusted length.
func FuzzDecodeFrame(f *testing.F) {
	good := mustFrame(f, MsgJob, []byte(`{"id":3,"spec":`+wireSpec+`,"idx":1}`))
	f.Add(good)
	f.Add(mustFrame(f, MsgReady, nil))
	f.Add(mustFrame(f, MsgHello, []byte(`{"proto":3,"name":"w0"}`)))
	f.Add(mustFrame(f, MsgResult, []byte(`{"id":3,"cell":`+wireCell+`,"cache":{"hits":1,"misses":1,"evictions":0}}`)))

	// Single-field corruptions of a valid frame.
	for _, mut := range []struct {
		off int
		val byte
	}{
		{0, 'X'},                 // magic
		{4, 2},                   // frame version
		{5, 0},                   // zero message type
		{5, byte(msgTypeEnd)},    // out-of-range message type
		{6, 1},                   // reserved byte
		{8, 0xFF},                // length low byte
		{11, 0x7F},               // length high byte (oversized)
		{frameHeaderBytes, '!'},  // payload (CRC mismatch)
		{len(good) - 1, 0xAA},    // CRC trailer
		{len(good) - 4, good[0]}, // CRC trailer first byte
	} {
		bad := append([]byte(nil), good...)
		bad[mut.off] = mut.val
		f.Add(bad)
	}
	f.Add(good[:frameHeaderBytes])                 // header only, no payload/CRC
	f.Add(good[:len(good)-1])                      // truncated trailer
	f.Add(append(append([]byte(nil), good...), 0)) // one byte long
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, frameHeaderBytes+frameTrailerBytes))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error does not wrap ErrBadFrame: %v", err)
			}
			return
		}
		// An accepted frame's announced length must be the real one…
		if n := binary.LittleEndian.Uint32(data[8:12]); int(n) != len(payload) {
			t.Fatalf("accepted frame announces %d payload bytes, decoded %d", n, len(payload))
		}
		// …and the frame must round-trip bit-for-bit.
		out, err := EncodeFrame(typ, payload)
		if err != nil {
			t.Fatalf("re-encode of accepted frame (%v, %x): %v", typ, payload, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, out)
		}
		// The stream reader must accept exactly the same frames.
		styp, spayload, err := ReadFrame(bytes.NewReader(data))
		if err != nil || styp != typ || !bytes.Equal(spayload, payload) {
			t.Fatalf("stream reader disagrees: (%v, %x, %v)", styp, spayload, err)
		}
	})
}
