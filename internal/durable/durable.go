// Package durable owns the on-disk discipline of the repository's
// append-only JSONL files: sweep checkpoints and the job service's
// ledger, whose done records carry each job's result.
//
// The contract has three parts. A file is born whole: creation goes
// through a temp file, a rename and a directory fsync, so a crash leaves
// either no file or a complete empty one. Every append is one Write and
// one Sync, so an acknowledged line is on disk and a crash mid-append can
// only tear the final line. Readers tolerate that tear: Scan skips empty,
// undecodable and oversized lines individually and keeps going, and
// OpenAppend terminates a torn tail before the first new append, so the
// fragment stays its own skipped line instead of swallowing the next
// record. Scan also reports where each line lies, so a reader can keep a
// record's offset instead of its bytes and read it back with ReadAt.
package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
)

// MaxLine is the longest line Scan decodes. Longer lines are skipped
// without being buffered, so one bad line can never stop a reader.
const MaxLine = 1 << 24

// OpenAppend opens path for appending, creating a missing file via temp
// file + atomic rename + directory fsync so a crash during creation never
// leaves a half-created file under the final name. If an existing
// non-empty file does not end in a newline — its last append was torn by
// a crash — one newline is written and synced before returning.
func OpenAppend(path string) (*os.File, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := createEmpty(path); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := terminateTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// terminateTail ends a torn final line so the next append starts a line
// of its own.
func terminateTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	return Append(f, []byte{'\n'})
}

// Append writes p to f as one Write and makes it durable with one Sync,
// so a caller that proceeds past Append knows the bytes are on disk.
// Callers serialize their own appends.
func Append(f *os.File, p []byte) error {
	if _, err := f.Write(p); err != nil {
		return err
	}
	return f.Sync()
}

// Scan decodes every line of path as a JSON T and hands it to fn, in
// file order, with the line's byte offset in the file and its length,
// newline included, so a caller can read one line back later with ReadAt.
// Empty lines, lines that do not decode and lines longer than MaxLine are
// skipped, and the scan continues past them; offsets still count every
// byte. A missing file scans as empty.
func Scan[T any](path string, fn func(v T, off int64, n int)) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return scan(f, fn)
}

func scan[T any](r io.Reader, fn func(v T, off int64, n int)) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var line []byte
	var start, pos int64 // the current line's first byte; bytes read so far
	tooLong := false
	for {
		chunk, err := br.ReadSlice('\n')
		pos += int64(len(chunk))
		if !tooLong && len(line)+len(chunk) > MaxLine {
			tooLong, line = true, line[:0]
		}
		if !tooLong {
			line = append(line, chunk...)
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // the line goes on past the read buffer
		}
		var v T
		if !tooLong && len(line) > 0 && json.Unmarshal(line, &v) == nil {
			fn(v, start, int(pos-start))
		}
		line, tooLong, start = line[:0], false, pos
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// createEmpty creates an empty file at path: a temp file beside it,
// renamed into place, then a directory sync so the new entry survives
// power loss. The temp file is removed on failure.
func createEmpty(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = tmp.Close()
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Best-effort: filesystems that reject directory fsync lose nothing
	// but the stronger guarantee.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
