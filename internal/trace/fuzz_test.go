package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadTrace throws arbitrary bytes, text traces among them, at the
// binary trace decoder. Traces are user input: whatever arrives, the
// decoder must return a clean error — never panic, hang or allocate past
// the input's own size.
func FuzzReadTrace(f *testing.F) {
	// A well-formed two-record trace.
	var good bytes.Buffer
	w := NewWriter(&good)
	w.WriteAll([]Access{
		{Addr: 0x1000, Size: 8, Kind: Load, CPU: 0, Tick: 1},
		{Addr: 0x2000, Size: 64, Kind: Store, CPU: 3, Tick: 9},
	})
	w.Flush()
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())-5]) // truncated mid-record
	f.Add([]byte(binaryMagic))                // header only
	f.Add([]byte("XXXX1\n"))                  // bad magic
	f.Add([]byte{})                           // empty
	f.Add([]byte("L 0x10 8 0 0\nS 0x20 4 1 2\n"))
	f.Add([]byte("# comment\n\nF 0 0 0 0\n"))
	f.Add([]byte("L not-a-number 8 0 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		accs, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			// Every binary decode failure must wrap ErrBadTrace so callers
			// can distinguish hostile input from I/O trouble.
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("binary decode error does not wrap ErrBadTrace: %v", err)
			}
		} else {
			// A clean parse consumed exact records: re-encoding must
			// reproduce the input byte for byte.
			if want := len(binaryMagic) + len(accs)*binaryRecSize; len(data) != want {
				t.Fatalf("clean parse of %d bytes yielded %d records (want %d bytes)",
					len(data), len(accs), want)
			}
			var out bytes.Buffer
			rw := NewWriter(&out)
			if err := rw.WriteAll(accs); err != nil {
				t.Fatal(err)
			}
			if err := rw.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("binary round trip diverged:\n in %x\nout %x", data, out.Bytes())
			}
			for _, a := range accs {
				if a.Kind > FenceOp {
					t.Fatalf("decoder let through bad kind %d", a.Kind)
				}
			}
		}

		// Streaming reads must agree with ReadAll.
		r := NewReader(bytes.NewReader(data))
		n := 0
		for {
			_, rerr := r.Read()
			if rerr == io.EOF {
				if err != nil {
					t.Fatalf("streaming read hit clean EOF, ReadAll errored: %v", err)
				}
				break
			}
			if rerr != nil {
				if err == nil {
					t.Fatalf("streaming read errored (%v), ReadAll was clean", rerr)
				}
				break
			}
			n++
			if n > len(data) {
				t.Fatal("decoder produced more records than input bytes")
			}
		}
	})
}
