package jobserv

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The job ledger is an append-only JSONL file holding every job state
// transition. Appends are fsync'd before the daemon acts on the
// transition, so the ledger is always at least as current as any
// observable effect — a SIGKILL'd daemon restarts into a queue that is a
// prefix of the truth, never ahead of it. The file is created through a
// temp-file/rename/dir-sync dance so a crash during creation leaves
// either no ledger or a complete empty one, and a torn final line (crash
// mid-append) is skipped on replay exactly like the sweep layer's
// checkpoints.

// Ledger event types, in lifecycle order.
const (
	evSubmit = "submit"
	evStart  = "start"  // also emitted on a crash-recovery re-run
	evPark   = "park"   // preemption or drain interrupted the job
	evResume = "resume" // a parked job got a slot back
	evDone   = "done"   // the result file exists before this is appended
	evFail   = "fail"
	evCancel = "cancel"
)

// event is one ledger line.
type event struct {
	Type     string `json:"type"`
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Spec     *Spec  `json:"spec,omitempty"` // submit only
	Error    string `json:"error,omitempty"`
}

// ledger is the fsync'd appender. Safe for concurrent use.
type ledger struct {
	mu sync.Mutex
	f  *os.File
}

// openLedger opens (creating atomically if needed) the ledger at path.
func openLedger(path string) (*ledger, error) {
	f, err := openDurableAppend(path)
	if err != nil {
		return nil, fmt.Errorf("jobserv: ledger: %w", err)
	}
	return &ledger{f: f}, nil
}

// append encodes one event, writes it and fsyncs before returning, so a
// caller that proceeds past append knows the transition is durable.
func (l *ledger) append(ev event) error {
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("jobserv: ledger encode: %w", err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("jobserv: ledger append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("jobserv: ledger sync: %w", err)
	}
	return nil
}

func (l *ledger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// maxLedgerLine is the longest event line replay decodes.
const maxLedgerLine = 1 << 24

// replayLedger reads every decodable event from path, in order. Unparsable
// lines are skipped: the only way one arises from this code is a write
// torn by a crash, and the fsync-before-act discipline guarantees nothing
// observable depended on a torn line. A line longer than maxLedgerLine is
// skipped the same way, so one bad line can never stop the daemon from
// restarting.
func replayLedger(path string) ([]event, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobserv: ledger replay: %w", err)
	}
	defer f.Close()
	var evs []event
	r := bufio.NewReaderSize(f, 1<<16)
	var line []byte
	tooLong := false
	for {
		chunk, err := r.ReadSlice('\n')
		if !tooLong && len(line)+len(chunk) > maxLedgerLine {
			tooLong, line = true, line[:0]
		}
		if !tooLong {
			line = append(line, chunk...)
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // the line goes on past the read buffer
		}
		var ev event
		if !tooLong && json.Unmarshal(line, &ev) == nil && ev.Type != "" && ev.ID != "" {
			evs = append(evs, ev)
		} // else: torn, foreign or oversized line
		line, tooLong = line[:0], false
		if errors.Is(err, io.EOF) {
			return evs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("jobserv: ledger replay: %w", err)
		}
	}
}

// openDurableAppend opens path for appending, creating a missing file via
// temp-file + atomic rename + directory fsync, so a crash during creation
// never leaves a half-created file under the final name.
func openDurableAppend(path string) (*os.File, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		dir := filepath.Dir(path)
		tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
		if err != nil {
			return nil, err
		}
		tmpName := tmp.Name()
		if err := tmp.Close(); err != nil {
			os.Remove(tmpName)
			return nil, err
		}
		if err := os.Rename(tmpName, path); err != nil {
			os.Remove(tmpName)
			return nil, err
		}
		syncDir(dir)
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// writeFileAtomic writes data under path via temp-file + fsync + rename +
// dir fsync: readers see the old content or the complete new content,
// never a torn file. Result files go through this BEFORE their "done"
// ledger record, so a done record always implies a complete result.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// readAll is a small helper for result fetches.
func readAll(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
