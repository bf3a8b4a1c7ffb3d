package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func randomAccesses(n int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	accs := make([]Access, n)
	for i := range accs {
		accs[i] = Access{
			Addr: rng.Uint64() & AddrMask,
			Size: uint32(1 + rng.Intn(256)),
			Kind: Kind(rng.Intn(3)),
			CPU:  uint8(rng.Intn(12)),
			Tick: uint64(rng.Int63()),
		}
	}
	return accs
}

func TestBinaryRoundTrip(t *testing.T) {
	accs := randomAccesses(1000, 42)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(accs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(accs) {
		t.Fatalf("Count() = %d, want %d", w.Count(), len(accs))
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d accesses from empty trace", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("NOTATRACE"))
	if _, err := r.Read(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	accs := randomAccesses(3, 7)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(accs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewReader(trunc))
	var err error
	for err == nil {
		_, err = r.Read()
	}
	if err == io.EOF || !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace (truncation)", err)
	}
}

func TestBinaryBadKind(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Access{Kind: Load}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(binaryMagic)+12] = 200 // corrupt the Kind byte
	if _, err := NewReader(bytes.NewReader(b)).Read(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	accs := randomAccesses(200, 99)
	var buf bytes.Buffer
	if err := WriteText(&buf, accs); err != nil {
		t.Fatal(err)
	}
	// Read the lines back field by field: the text form loses nothing.
	var got []Access
	kinds := map[string]Kind{"L": Load, "S": Store, "F": FenceOp}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var k string
		var a Access
		if _, err := fmt.Sscanf(line, "%s %v %d %d %d", &k, &a.Addr, &a.Size, &a.CPU, &a.Tick); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		a.Kind = kinds[k]
		got = append(got, a)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("text round trip mismatch")
	}
}
