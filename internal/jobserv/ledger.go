package jobserv

import (
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
	f, err := durable.OpenAppend(path)
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
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := durable.Append(l.f, append(line, '\n')); err != nil {
		return fmt.Errorf("jobserv: ledger append: %w", err)
	}
	return nil
}

func (l *ledger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// replayLedger reads every decodable event from path, in order. Lines
// durable.Scan cannot decode are skipped, and so are decodable lines that
// name no event: the only way one arises from this code is a write torn
// by a crash, and the fsync-before-act discipline guarantees nothing
// observable depended on a torn line. Oversized lines are skipped the
// same way, so one bad line can never stop the daemon from restarting.
func replayLedger(path string) ([]event, error) {
	var evs []event
	err := durable.Scan(path, func(ev event) {
		if ev.Type != "" && ev.ID != "" {
			evs = append(evs, ev)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("jobserv: ledger replay: %w", err)
	}
	return evs, nil
}
