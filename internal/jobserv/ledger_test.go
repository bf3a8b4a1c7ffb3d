package jobserv

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hmccoal/internal/durable"
)

// ---- results in done records ------------------------------------------------

// escapedResult is a result shaped like the executors' output: encoded by
// json.Marshal, so it carries the escapes Marshal writes (<, >, &, U+2028)
// and must come back through the ledger unchanged.
func escapedResult(id string) []byte {
	raw, err := json.Marshal(map[string]any{"job": id, "table": "a<b && c>d\u2028", "rows": []float64{0.5, 1e-9}})
	if err != nil {
		panic(err)
	}
	return raw
}

func escapedExec(ctl execCtl, id string, spec Spec) execOutcome {
	return execOutcome{result: escapedResult(id)}
}

// runToDone submits n single jobs and waits for each to finish.
func runToDone(t *testing.T, d *Daemon, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		ids = append(ids, mustSubmit(t, d, "a", 0, singleSpec()))
	}
	for _, id := range ids {
		if v, done := d.WaitJob(id, 10*time.Second); !done || v.State != StateDone {
			t.Fatalf("job %s: %+v (done=%v), want done", id, v, done)
		}
	}
	return ids
}

// wantResults checks every job's Result against want(id).
func wantResults(t *testing.T, d *Daemon, ids []string, want func(string) []byte) {
	t.Helper()
	for _, id := range ids {
		raw, err := d.Result(id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		if !bytes.Equal(raw, want(id)) {
			t.Fatalf("result %s = %q, want %q", id, raw, want(id))
		}
	}
}

// TestDoneRecordResultSurvivesRestart pins the result's one home: a
// finished job's bytes come back unchanged from the live daemon and from
// one that replays the ledger, the state directory holds no result files,
// and each job has exactly one done line.
func TestDoneRecordResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, Options{Dir: dir, Slots: 2, exec: escapedExec})
	ids := runToDone(t, d1, 4)
	wantResults(t, d1, ids, escapedResult)
	if err := d1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, ","); got != "ckpt,ledger.jsonl,repros" {
		t.Errorf("state dir holds %s, want ckpt,ledger.jsonl,repros", got)
	}
	for id, c := range ledgerEventCounts(t, dir) {
		if c[evDone] != 1 {
			t.Errorf("job %s has %d done records, want 1", id, c[evDone])
		}
	}

	d2 := newTestDaemon(t, Options{Dir: dir, exec: instantExec})
	wantResults(t, d2, ids, escapedResult)
}

// TestDoneRecordLegacyResultFile adopts a state directory an older daemon
// wrote, whose done records carry no result and whose results live in
// results/<id>.json: the old job's file is served, and a job finished
// after the upgrade is served from its done record.
func TestDoneRecordLegacyResultFile(t *testing.T) {
	dir := t.TempDir()
	ledgerLines := `{"type":"submit","id":"j-000001","tenant":"a","spec":{"kind":"single","bench":"HPCG","ops":40}}` + "\n" +
		`{"type":"start","id":"j-000001"}` + "\n" +
		`{"type":"done","id":"j-000001"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "ledger.jsonl"), []byte(ledgerLines), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	old := []byte(`{"kind":"single","legacy":true}`)
	if err := os.WriteFile(filepath.Join(dir, "results", "j-000001.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}

	boom := func(ctl execCtl, id string, spec Spec) execOutcome {
		if id == "j-000001" {
			t.Errorf("legacy done job %s was re-run", id)
		}
		return execOutcome{result: fakeResult(id)}
	}
	d := newTestDaemon(t, Options{Dir: dir, exec: boom})
	wantResults(t, d, []string{"j-000001"}, func(string) []byte { return old })
	ids := runToDone(t, d, 1)
	wantResults(t, d, ids, fakeResult)
	if _, err := os.Stat(filepath.Join(dir, "results", ids[0]+".json")); !os.IsNotExist(err) {
		t.Errorf("new job %s wrote a result file (stat: %v)", ids[0], err)
	}
}

// TestDoneRecordTornLineReruns tears the ledger's final append, a done
// record, as a crash mid-write would: replay skips the fragment, the job
// re-runs once to the same bytes, and the next restart serves them from
// the new done record.
func TestDoneRecordTornLineReruns(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, Options{Dir: dir, exec: escapedExec})
	ids := runToDone(t, d1, 2)
	if err := d1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := filepath.Join(dir, "ledger.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if !bytes.Contains(data[last:], []byte(`"type":"done","id":"`+ids[1]+`"`)) {
		t.Fatalf("last ledger line is not %s's done record: %.80q", ids[1], data[last:])
	}
	torn := last + (len(data)-last)/2
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int32
	count := func(ctl execCtl, id string, spec Spec) execOutcome {
		runs.Add(1)
		if id != ids[1] {
			t.Errorf("job %s re-ran; only %s lost its done record", id, ids[1])
		}
		return escapedExec(ctl, id, spec)
	}
	d2 := newTestDaemon(t, Options{Dir: dir, exec: count})
	if v, done := d2.WaitJob(ids[1], 10*time.Second); !done || v.State != StateDone {
		t.Fatalf("torn job after restart: %+v (done=%v)", v, done)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("executor ran %d times, want 1", n)
	}
	wantResults(t, d2, ids, escapedResult)
	if err := d2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	d3 := newTestDaemon(t, Options{Dir: dir, exec: count})
	wantResults(t, d3, ids, escapedResult)
}

// TestDoneRecordSpansAfterSkippedLines keeps every done record readable
// when replay skips lines before it. The ledger holds job 1's done record
// right after an undecodable line and an oversized one, then job 2's done
// record torn mid-append. Replay must find job 1's record, job 2 re-runs
// behind the fragment the next open terminates, and the spans a daemon
// records as it appends and a later replay reads both land on the right
// lines.
func TestDoneRecordSpansAfterSkippedLines(t *testing.T) {
	spec := singleSpec()
	line := func(rec any) string {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw) + "\n"
	}
	done := func(id string) doneRecord {
		return doneRecord{event: event{Type: evDone, ID: id}, Result: escapedResult(id)}
	}
	oversized := done("j-000001")
	oversized.Result = json.RawMessage(`"` + strings.Repeat("x", durable.MaxLine) + `"`)
	torn := line(done("j-000002"))
	ledgerLines := line(event{Type: evSubmit, ID: "j-000001", Tenant: "a", Spec: &spec}) +
		line(event{Type: evStart, ID: "j-000001"}) +
		"{\x00]\n" +
		line(oversized) +
		line(done("j-000001")) +
		line(event{Type: evSubmit, ID: "j-000002", Tenant: "a", Spec: &spec}) +
		line(event{Type: evStart, ID: "j-000002"}) +
		torn[:len(torn)/2]
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ledger.jsonl"), []byte(ledgerLines), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := newTestDaemon(t, Options{Dir: dir, exec: escapedExec})
	wantResults(t, d2, []string{"j-000001"}, escapedResult)
	if v, done := d2.WaitJob("j-000002", 10*time.Second); !done || v.State != StateDone {
		t.Fatalf("torn job after restart: %+v (done=%v)", v, done)
	}
	ids := append([]string{"j-000001", "j-000002"}, runToDone(t, d2, 2)...)
	wantResults(t, d2, ids, escapedResult)
	if err := d2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	d3 := newTestDaemon(t, Options{Dir: dir, exec: escapedExec})
	wantResults(t, d3, ids, escapedResult)
}

// TestDoneRecordOversizedResultFails gives a job a result whose done line
// would exceed the replay line limit: the job fails with an error that
// names the limit, no done line is written, and the daemon goes on.
func TestDoneRecordOversizedResultFails(t *testing.T) {
	dir := t.TempDir()
	huge := []byte(`"` + strings.Repeat("x", durable.MaxLine) + `"`)
	exec := func(ctl execCtl, id string, spec Spec) execOutcome {
		if id == "j-000001" {
			return execOutcome{result: huge}
		}
		return instantExec(ctl, id, spec)
	}
	d := newTestDaemon(t, Options{Dir: dir, exec: exec})
	id := mustSubmit(t, d, "a", 0, singleSpec())
	v, done := d.WaitJob(id, 10*time.Second)
	if !done || v.State != StateFailed {
		t.Fatalf("oversized job: %+v (done=%v), want failed", v, done)
	}
	if !strings.Contains(v.Error, "line limit") || !strings.Contains(v.Error, "store result") {
		t.Errorf("oversized job error %q does not name the ledger's line limit", v.Error)
	}
	if _, err := d.Result(id); err == nil {
		t.Error("result of the failed job readable")
	}
	next := runToDone(t, d, 1)
	wantResults(t, d, next, fakeResult)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c := ledgerEventCounts(t, dir)[id]
	if c[evDone] != 0 || c[evFail] != 1 {
		t.Errorf("oversized job's ledger records: %v, want one fail and no done", c)
	}
	st, err := os.Stat(filepath.Join(dir, "ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= durable.MaxLine {
		t.Errorf("ledger is %d bytes: the oversized record reached it", st.Size())
	}
	d2 := newTestDaemon(t, Options{Dir: dir, exec: instantExec})
	if v, ok := d2.Get(id); !ok || v.State != StateFailed {
		t.Errorf("oversized job after restart: %+v (ok=%v), want failed", v, ok)
	}
}
