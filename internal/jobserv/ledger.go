package jobserv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"hmccoal/internal/durable"
)

// The job ledger is an append-only JSONL file holding every job state
// transition. Appends are fsync'd before the daemon acts on the
// transition, so the ledger is always at least as current as any
// observable effect — a SIGKILL'd daemon restarts into a queue that is a
// prefix of the truth, never ahead of it. internal/durable owns the file
// discipline shared with the sweep layer's checkpoints: atomic creation,
// one Write plus one Sync per append, a torn final line (crash
// mid-append) terminated at the next open and skipped on replay.
//
// A job's result lives in its done record, so finishing a job is one
// append. The daemon keeps only where each done line lies and reads the
// result back from the file when a client asks for it.

// Ledger event types, in lifecycle order.
const (
	evSubmit = "submit"
	evStart  = "start"  // also emitted on a crash-recovery re-run
	evPark   = "park"   // preemption or drain interrupted the job
	evResume = "resume" // a parked job got a slot back
	evDone   = "done"   // written as a doneRecord, carrying the result
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

// doneRecord is a done line: the event plus the job's result bytes.
// Replay decodes lines as event, which has no result field, so it never
// copies a result; the daemon reads one back by its span. A done record
// without a result was written by a daemon that kept results in
// results/<id>.json.
type doneRecord struct {
	event
	Result json.RawMessage `json:"result,omitempty"`
}

// span locates one ledger line: its byte offset and its length, newline
// included.
type span struct {
	off int64
	n   int
}

// ledger is the fsync'd appender. Safe for concurrent use.
type ledger struct {
	mu   sync.Mutex
	f    *os.File
	size int64 // where the next append starts
}

// openLedger opens (creating atomically if needed) the ledger at path.
func openLedger(path string) (*ledger, error) {
	f, err := durable.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("jobserv: ledger: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jobserv: ledger: %w", err)
	}
	return &ledger{f: f, size: st.Size()}, nil
}

// append encodes one record, writes it and fsyncs before returning, so a
// caller that proceeds past append knows the transition is durable. It
// returns where the line lies. A record whose line would be longer than
// durable.MaxLine is refused before anything is written: replay would
// skip it.
func (l *ledger) append(rec any) (span, error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return span{}, fmt.Errorf("jobserv: ledger encode: %w", err)
	}
	line = append(line, '\n')
	if len(line) > durable.MaxLine {
		return span{}, fmt.Errorf("jobserv: ledger record exceeds the line limit: %d bytes, limit %d", len(line), durable.MaxLine)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	at := span{off: l.size, n: len(line)}
	if err := durable.Append(l.f, line); err != nil {
		// Part of the line may have reached the file.
		if st, serr := l.f.Stat(); serr == nil {
			l.size = st.Size()
		}
		return span{}, fmt.Errorf("jobserv: ledger append: %w", err)
	}
	l.size += int64(len(line))
	return at, nil
}

// result reads the done record at at back and returns its result bytes
// as stored: nil for a record written without one.
func (l *ledger) result(id string, at span) ([]byte, error) {
	line := make([]byte, at.n)
	if _, err := l.f.ReadAt(line, at.off); err != nil {
		return nil, fmt.Errorf("jobserv: ledger read: %w", err)
	}
	var rec doneRecord
	if !bytes.HasSuffix(line, []byte{'\n'}) || json.Unmarshal(line, &rec) != nil || rec.Type != evDone || rec.ID != id {
		return nil, fmt.Errorf("jobserv: ledger line at byte %d is not the done record of %s", at.off, id)
	}
	return rec.Result, nil
}

func (l *ledger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// replayLedger hands every decodable event in path to fn, in order, with
// the span of its line. Lines durable.Scan cannot decode are skipped, and
// so are decodable lines that name no event: the only way one arises from
// this code is a write torn by a crash, and the fsync-before-act
// discipline guarantees nothing observable depended on a torn line.
// Oversized lines are skipped the same way, so one bad line can never stop
// the daemon from restarting.
func replayLedger(path string, fn func(ev event, at span)) error {
	err := durable.Scan(path, func(ev event, off int64, n int) {
		if ev.Type != "" && ev.ID != "" {
			fn(ev, span{off: off, n: n})
		}
	})
	if err != nil {
		return fmt.Errorf("jobserv: ledger replay: %w", err)
	}
	return nil
}
