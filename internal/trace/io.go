package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format: a short magic header followed by one fixed-width
// little-endian record per access. The format is deliberately simple — it
// is the interchange format between cmd/tracegen, cmd/rvsim and the
// simulator, not an archival format.
const (
	binaryMagic   = "HMCT1\n"
	binaryRecSize = 8 + 4 + 1 + 1 + 8 // Addr, Size, Kind, CPU, Tick
)

// ErrBadTrace is wrapped by decoding errors for malformed trace input.
var ErrBadTrace = errors.New("trace: malformed input")

// Writer serializes accesses to the binary trace format.
type Writer struct {
	w     *bufio.Writer
	wrote bool
	count int
}

// NewWriter returns a Writer emitting to w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one access record.
func (tw *Writer) Write(a Access) error {
	if !tw.wrote {
		if _, err := tw.w.WriteString(binaryMagic); err != nil {
			return err
		}
		tw.wrote = true
	}
	var rec [binaryRecSize]byte
	binary.LittleEndian.PutUint64(rec[0:], a.Addr)
	binary.LittleEndian.PutUint32(rec[8:], a.Size)
	rec[12] = byte(a.Kind)
	rec[13] = a.CPU
	binary.LittleEndian.PutUint64(rec[14:], a.Tick)
	if _, err := tw.w.Write(rec[:]); err != nil {
		return err
	}
	tw.count++
	return nil
}

// WriteAll appends every access in order.
func (tw *Writer) WriteAll(accs []Access) error {
	for _, a := range accs {
		if err := tw.Write(a); err != nil {
			return err
		}
	}
	return nil
}

// Count reports how many records have been written.
func (tw *Writer) Count() int { return tw.count }

// Flush flushes buffered records to the underlying writer.
func (tw *Writer) Flush() error {
	if !tw.wrote {
		if _, err := tw.w.WriteString(binaryMagic); err != nil {
			return err
		}
		tw.wrote = true
	}
	return tw.w.Flush()
}

// Reader decodes the binary trace format.
type Reader struct {
	r      *bufio.Reader
	header bool
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (tr *Reader) readHeader() error {
	var magic [len(binaryMagic)]byte
	if _, err := io.ReadFull(tr.r, magic[:]); err != nil {
		return fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if string(magic[:]) != binaryMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	tr.header = true
	return nil
}

// Read decodes the next access. It returns io.EOF at a clean end of trace.
func (tr *Reader) Read() (Access, error) {
	if !tr.header {
		if err := tr.readHeader(); err != nil {
			return Access{}, err
		}
	}
	var rec [binaryRecSize]byte
	if _, err := io.ReadFull(tr.r, rec[:]); err != nil {
		if err == io.EOF {
			return Access{}, io.EOF
		}
		return Access{}, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
	}
	a := Access{
		Addr: binary.LittleEndian.Uint64(rec[0:]),
		Size: binary.LittleEndian.Uint32(rec[8:]),
		Kind: Kind(rec[12]),
		CPU:  rec[13],
		Tick: binary.LittleEndian.Uint64(rec[14:]),
	}
	if a.Kind > FenceOp {
		return Access{}, fmt.Errorf("%w: bad kind %d", ErrBadTrace, rec[12])
	}
	return a, nil
}

// ReadAll decodes every remaining access.
func (tr *Reader) ReadAll() ([]Access, error) {
	var out []Access
	for {
		a, err := tr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
}

// WriteText renders accesses in the line-oriented text format, one access
// per line: "<K> <addr> <size> <cpu> <tick>".
func WriteText(w io.Writer, accs []Access) error {
	bw := bufio.NewWriter(w)
	for _, a := range accs {
		if _, err := fmt.Fprintf(bw, "%s %#x %d %d %d\n", a.Kind, a.Addr, a.Size, a.CPU, a.Tick); err != nil {
			return err
		}
	}
	return bw.Flush()
}
