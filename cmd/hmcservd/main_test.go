package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"hmccoal"
	"hmccoal/internal/jobserv"
)

// TestMain doubles as the daemon entrypoint for the e2e tests: when the
// re-exec env var is set, the test binary IS hmcservd, so the SIGKILL test
// kills a real process mid-campaign — no in-process simulation of a crash.
func TestMain(m *testing.M) {
	if args := os.Getenv("HMCSERVD_CHILD_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no state", []string{}},
		{"bad slots", []string{"-state", t.TempDir(), "-slots", "0"}},
		{"negative rate", []string{"-state", t.TempDir(), "-rate", "-1"}},
		{"negative quota", []string{"-state", t.TempDir(), "-max-queued", "-1"}},
		{"zero drain", []string{"-state", t.TempDir(), "-drain-timeout", "0s"}},
		{"token sans serve", []string{"-state", t.TempDir(), "-token", "x"}},
		{"chaos sans serve", []string{"-state", t.TempDir(), "-chaos", "seed=1"}},
		{"tls sans serve", []string{"-state", t.TempDir(), "-tls-cert", "c", "-tls-key", "k"}},
		{"cert sans key", []string{"-state", t.TempDir(), "-serve", ":0", "-tls-cert", "c"}},
		{"bad chaos", []string{"-state", t.TempDir(), "-serve", ":0", "-chaos", "nope"}},
		{"zero lease", []string{"-state", t.TempDir(), "-serve", ":0", "-lease", "0s"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var errb bytes.Buffer
			if code := run(c.args, &errb, &errb); code != exitUsage {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", c.args, code, exitUsage, errb.String())
			}
		})
	}
}

// TestCoordinatorBudgetErrors pins the stderr line for a non-positive
// -lease or -max-attempts: the coordinator flags are validated by the
// shared dsweep registration, so hmcservd names the flag at fault exactly
// as hmccoal does.
func TestCoordinatorBudgetErrors(t *testing.T) {
	for args, want := range map[[2]string]string{
		{"-lease", "0s"}:       "hmcservd: -lease must be positive, got 0s\n",
		{"-lease", "-1m"}:      "hmcservd: -lease must be positive, got -1m0s\n",
		{"-max-attempts", "0"}: "hmcservd: -max-attempts must be positive, got 0\n",
	} {
		var errb bytes.Buffer
		argv := []string{"-state", t.TempDir(), "-serve", ":0", args[0], args[1]}
		if code := run(argv, &errb, &errb); code != exitUsage || errb.String() != want {
			t.Errorf("run(%v) = %d, stderr %q; want %d, %q", argv, code, errb.String(), exitUsage, want)
		}
	}
}

// child is one re-exec'd hmcservd process.
type child struct {
	cmd  *exec.Cmd
	addr string
}

// startChild re-execs the test binary as a real hmcservd daemon and parses
// the bound API address from its stdout.
func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HMCSERVD_CHILD_ARGS="+strings.Join(args, "\x1f"))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child daemon: %v", err)
	}
	sc := bufio.NewScanner(out)
	addr := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "hmcservd: listening on "); ok {
				addr <- rest
				break
			}
		}
	}()
	select {
	case a := <-addr:
		c := &child{cmd: cmd, addr: a}
		t.Cleanup(func() {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		})
		return c
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child daemon never reported its listen address")
		return nil
	}
}

func (c *child) url(path string) string { return "http://" + c.addr + path }

func (c *child) submit(t *testing.T, tenant string, pri int, spec jobserv.Spec) string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"tenant": tenant, "priority": pri, "spec": spec})
	resp, err := http.Post(c.url("/api/v1/jobs"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, buf.String())
	}
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	if out["id"] == "" {
		t.Fatal("submit returned no id")
	}
	return out["id"]
}

func (c *child) status(t *testing.T) jobserv.DaemonStatus {
	t.Helper()
	resp, err := http.Get(c.url("/api/v1/status"))
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st jobserv.DaemonStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	return st
}

// waitDone long-polls a job to done and returns its result bytes.
func (c *child) waitDone(t *testing.T, id string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(c.url("/api/v1/jobs/" + id + "/wait?timeout=5s"))
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		var v jobserv.JobView
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.State == jobserv.StateDone {
			break
		}
		if v.State.Terminal() {
			t.Fatalf("job %s ended %s: %s", id, v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.State, timeout)
		}
	}
	resp, err := http.Get(c.url("/api/v1/jobs/" + id + "/result"))
	if err != nil {
		t.Fatalf("result %s: %v", id, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// campaign is the mixed-kind job set the kill test runs.
func campaign() []jobserv.Spec {
	return []jobserv.Spec{
		{Kind: jobserv.KindSingle, Bench: hmccoal.Benchmarks()[0], CPUs: 2, Ops: 60},            // finishes fast
		{Kind: jobserv.KindSingle, Bench: hmccoal.Benchmarks()[1], CPUs: 4, Ops: 4000, Seed: 7}, // long; likely mid-flight at the kill
		{Kind: jobserv.KindSweep, Sweep: "timeout", Bench: hmccoal.Benchmarks()[0], CPUs: 2, Ops: 150, Timeouts: []uint64{16, 22, 28}},
		{Kind: jobserv.KindSoak, Seed: 5, Runs: 4},
		{Kind: jobserv.KindSingle, Bench: hmccoal.Benchmarks()[2], CPUs: 2, Ops: 80},
	}
}

// TestKillTheDaemon is the acceptance test of the survivability story: a
// real hmcservd process is SIGKILL'd mid-campaign, a fresh process adopts
// the state directory, finishes every job, and the results are
// byte-identical to a never-killed run. The ledger holds exactly one
// submit and one terminal record per job — nothing lost, nothing run
// twice.
func TestKillTheDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e")
	}
	dir := t.TempDir()
	specs := campaign()

	a := startChild(t, "-listen", "127.0.0.1:0", "-state", dir, "-slots", "2", "-sweep-workers", "2")
	var ids []string
	for _, spec := range specs {
		ids = append(ids, a.submit(t, "e2e", 0, spec))
	}

	// Kill once the campaign is demonstrably mid-flight: at least one job
	// done, at least one running.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := a.status(t)
		if st.Done >= 1 && st.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never reached mid-flight: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no cleanup
		t.Fatalf("kill: %v", err)
	}
	a.cmd.Wait()

	// A fresh daemon adopts the state directory and finishes the campaign.
	b := startChild(t, "-listen", "127.0.0.1:0", "-state", dir, "-slots", "2", "-sweep-workers", "2")
	results := make([][]byte, len(ids))
	for i, id := range ids {
		results[i] = b.waitDone(t, id, 180*time.Second)
	}

	// Reference: the same campaign on a never-killed daemon.
	refDir := t.TempDir()
	c := startChild(t, "-listen", "127.0.0.1:0", "-state", refDir, "-slots", "2", "-sweep-workers", "2")
	for i, spec := range specs {
		id := c.submit(t, "e2e", 0, spec)
		want := c.waitDone(t, id, 180*time.Second)
		if !bytes.Equal(results[i], want) {
			t.Errorf("job %d (%s): SIGKILL+restart changed the result\nkilled:    %.200s\nreference: %.200s",
				i, specs[i].Kind, results[i], want)
		}
	}

	// Exactly-once ledger accounting across both processes' appends.
	counts := ledgerCounts(t, dir+"/ledger.jsonl")
	if len(counts) != len(ids) {
		t.Fatalf("ledger names %d jobs, want %d", len(counts), len(ids))
	}
	for _, id := range ids {
		c := counts[id]
		if c["submit"] != 1 {
			t.Errorf("job %s: %d submit records, want 1", id, c["submit"])
		}
		if terminal := c["done"] + c["fail"] + c["cancel"]; terminal != 1 {
			t.Errorf("job %s: %d terminal records, want exactly 1 (%v)", id, terminal, c)
		}
	}

	// SIGTERM drains the adopting daemon cleanly: exit code 0.
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("sigterm: %v", err)
	}
	if err := b.cmd.Wait(); err != nil {
		t.Fatalf("drained daemon exited dirty: %v", err)
	}
}

// ledgerCounts tallies ledger events per (id, type) without importing
// jobserv internals — the file format is the public contract.
func ledgerCounts(t *testing.T, path string) map[string]map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open ledger: %v", err)
	}
	defer f.Close()
	counts := make(map[string]map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
			ID   string `json:"id"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Type == "" || ev.ID == "" {
			continue // torn line from the kill — legal
		}
		if counts[ev.ID] == nil {
			counts[ev.ID] = make(map[string]int)
		}
		counts[ev.ID][ev.Type]++
	}
	return counts
}
