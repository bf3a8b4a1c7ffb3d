package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"hmccoal"
)

const (
	// svcRate is the open loop's offered load, well below the ~100 jobs/s
	// at which two slots saturate on a 2-core host.
	svcRate = 40.0
	// svcOpenShare is the share of the run's seconds spent in the open
	// loop; the rest goes to the backlog drains.
	svcOpenShare = 0.5
	// svcBacklog jobs (four whole decks) are submitted at once in each
	// drain, far below the daemon's 1024-job queue cap, so none is
	// refused. A run drains at least svcDrains times; the traced phase
	// replays the first svcDrains drains' jobs directly.
	svcBacklog = 4 * svcDeck
	svcDrains  = 3
	// svcSetupReps daemons are started per run; setup_s is the median
	// daemon CPU time from exec to the first accepted submit.
	svcSetupReps = 25
	// svcSlots is the daemon's concurrent job slots.
	svcSlots = 2
)

// svcBenches and svcTenants are the job mix: six benchmarks spanning
// streaming, strided, random and compute-bound shapes, from three tenants.
var (
	svcBenches = []string{"FT", "STREAM", "SSCA2", "CG", "HPCG", "EP"}
	svcTenants = []string{"alice", "bob", "carol"}
)

// jobSpec is the subset of the daemon's job spec the workload submits: a
// small single run (4 CPUs, 2000 ops per CPU) under the two-phase
// coalescer.
type jobSpec struct {
	Kind  string `json:"kind"`
	CPUs  int    `json:"cpus"`
	Ops   int    `json:"ops"`
	Seed  int64  `json:"seed"`
	Bench string `json:"bench"`
}

type jobReq struct {
	Tenant string  `json:"tenant"`
	Spec   jobSpec `json:"spec"`
}

// svcTraceSeeds is the pool of trace seeds jobs draw from, small so the
// direct runs that check the daemon's summaries stay few.
const svcTraceSeeds = 4

// svcDeck is how many jobs one shuffled deck holds: every benchmark with
// every trace seed once.
const svcDeck = 6 * svcTraceSeeds

// jobMix deals the workload's jobs from decks shuffled by its seed, so
// every whole deck has the same composition and the seed changes only the
// order. Tenants take turns.
type jobMix struct {
	rng  *rand.Rand
	deck []jobSpec
	n    int
}

func (j *jobMix) next() jobReq {
	if len(j.deck) == 0 {
		for _, b := range svcBenches {
			for s := int64(1); s <= svcTraceSeeds; s++ {
				j.deck = append(j.deck, jobSpec{Kind: "single", CPUs: 4, Ops: 2000, Seed: s, Bench: b})
			}
		}
		j.rng.Shuffle(len(j.deck), func(a, b int) { j.deck[a], j.deck[b] = j.deck[b], j.deck[a] })
	}
	spec := j.deck[0]
	j.deck = j.deck[1:]
	j.n++
	return jobReq{Tenant: svcTenants[j.n%len(svcTenants)], Spec: spec}
}

// daemon is one hmcservd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	dir  string
	log  *os.File
}

// startDaemon execs hmcservd on an ephemeral port with a fresh state
// directory and waits for its listening announcement.
func startDaemon(bin, dir string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("the service workload needs -hmcservd")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-state", dir, "-listen", "127.0.0.1:0", "-slots", fmt.Sprint(svcSlots))
	cmd.Stderr = log
	out, err := cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, dir: dir, log: log}
	line, err := bufio.NewReader(out).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "hmcservd: listening on ")
	if err != nil || !ok {
		d.stop()
		return nil, fmt.Errorf("hmcservd did not announce its address (read %q: %v)", line, err)
	}
	go io.Copy(io.Discard, out) // keep the pipe drained until exit
	d.base = "http://" + addr
	return d, nil
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, waits
// for the process, and removes its state.
func (d *daemon) stop() {
	exited := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(exited)
	}()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-exited
	}
	d.log.Close()
	os.RemoveAll(d.dir)
	os.Remove(d.dir + ".log")
}

// svcClient talks to the daemon over two connections: one for submits, so
// waits never delay the schedule, and one for waits.
type svcClient struct {
	base   string
	submit *http.Client
	wait   *http.Client
}

func newSvcClient(base string) *svcClient {
	mk := func(conns int) *http.Client {
		return &http.Client{
			Timeout: 90 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		}
	}
	return &svcClient{base: base, submit: mk(1), wait: mk(1)}
}

func (c *svcClient) close() {
	c.submit.CloseIdleConnections()
	c.wait.CloseIdleConnections()
}

// post submits a job; a non-202 answer is a refusal. gotConn, if not nil,
// is called once the request has the submit connection, so a submit queued
// behind a slow one shows as lateness of the load generator.
func (c *svcClient) post(req jobReq, gotConn func()) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	hr, err := http.NewRequest(http.MethodPost, c.base+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hr.Header.Set("Content-Type", "application/json")
	if gotConn != nil {
		trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { gotConn() }}
		hr = hr.WithContext(httptrace.WithClientTrace(hr.Context(), trace))
	}
	resp, err := c.submit.Do(hr)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit refused: %s %s", resp.Status, bytes.TrimSpace(raw))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil || ack.ID == "" {
		return "", fmt.Errorf("submit: bad answer %q", raw)
	}
	return ack.ID, nil
}

func (c *svcClient) getJSON(client *http.Client, path string, v any) (int, error) {
	resp, err := client.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Errorf("GET %s: %s %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// poll waits up to timeout for a job to end. It reports whether the job
// has ended, and fails unless it ended done.
func (c *svcClient) poll(id string, timeout time.Duration) (bool, error) {
	var v struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	code, err := c.getJSON(c.wait, "/api/v1/jobs/"+id+"/wait?timeout="+timeout.String(), &v)
	if err != nil {
		return true, err
	}
	if code == http.StatusAccepted {
		return false, nil
	}
	if v.State != "done" {
		return true, fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
	}
	return true, nil
}

// awaitDone long-polls until the job has ended and fails unless it is done.
func (c *svcClient) awaitDone(id string) error {
	for {
		if ended, err := c.poll(id, 60*time.Second); ended {
			return err
		}
	}
}

// watchWait is how long the open loop's watcher waits on one outstanding
// job before it moves to the next.
const watchWait = time.Millisecond

// watch stamps the done time of each open-loop job sent on jobs. It cycles
// over the outstanding jobs with watchWait-long waits on the wait
// connection, so a job that ends on one slot is seen within about
// watchWait per outstanding job, however long the job ahead of it runs on
// the other slot. It returns once jobs is closed and every job has ended.
func (c *svcClient) watch(t0 time.Time, jobs <-chan *svcJob, tr *tracer) {
	var out []*svcJob
	for jobs != nil || len(out) > 0 {
		if len(out) == 0 {
			j, ok := <-jobs
			if !ok {
				return
			}
			out = append(out, j)
		}
	more:
		for jobs != nil {
			select {
			case j, ok := <-jobs:
				if !ok {
					jobs = nil
					break more
				}
				out = append(out, j)
			default:
				break more
			}
		}
		kept := out[:0]
		for _, j := range out {
			ended, err := c.poll(j.id, watchWait)
			if !ended {
				kept = append(kept, j)
				continue
			}
			j.done, j.err = time.Since(t0), err
			tr.end(j.wait)
			tr.end(j.span)
		}
		out = kept
	}
}

type svcStatus struct {
	Queued int `json:"queued"`
}

func (c *svcClient) status() (svcStatus, error) {
	var s svcStatus
	_, err := c.getJSON(c.submit, "/api/v1/status", &s)
	return s, err
}

// summary fetches a done job's Result summary.
func (c *svcClient) summary(id string) (string, error) {
	var r struct {
		Summary string `json:"summary"`
	}
	_, err := c.getJSON(c.submit, "/api/v1/jobs/"+id+"/result", &r)
	return r.Summary, err
}

// svcJob is one submitted job and what the load generator saw of it.
type svcJob struct {
	req      jobReq
	id       string
	due      time.Duration // open loop only, like sent, accepted and done
	sent     time.Duration // when the submit got its connection
	accepted time.Duration
	done     time.Duration
	err      error
	span     int // traced phase only: the job's span and its wait's
	wait     int
}

// direct is a job spec run through the library instead of the daemon.
type direct struct {
	res     hmccoal.Result
	summary string
	dur     time.Duration // GenerateTrace + NewSystem + Start→Finish
	gen     time.Duration
	b       built
	r       ran
}

func runDirect(tr *tracer, s jobSpec) (direct, error) {
	var d direct
	t0 := time.Now()
	sp := tr.begin("workloads.GenerateTrace", 0)
	accs, err := hmccoal.GenerateTrace(s.Bench, hmccoal.TraceParams{CPUs: s.CPUs, OpsPerCPU: s.Ops, Seed: s.Seed})
	tr.end(sp)
	d.gen = time.Since(t0)
	if err != nil {
		return d, err
	}
	cfg := hmccoal.DefaultConfig()
	cfg.Mode = hmccoal.ModeTwoPhase
	cfg.Hierarchy.CPUs = s.CPUs
	if d.b, err = build(tr, 0, cfg); err != nil {
		return d, err
	}
	if d.r, err = simulate(tr, 0, d.b.sys, accs); err != nil {
		return d, err
	}
	d.dur = time.Since(t0)
	d.res, d.summary = d.r.res, d.r.res.Summary()
	return d, nil
}

// runService is the service workload: an hmcservd daemon with two slots
// running small single jobs. Set-up is daemon exec to first accepted
// submit and a unit of work is draining a backlog of svcBacklog jobs
// submitted at once, both timed in the daemon's CPU time. An operation is
// one job of the open loop at svcRate jobs/s, timed in wall time
// submit→done from when it was due. Every job's summary is checked
// against the same spec run directly through the library.
func runService(e *env) (*measure, layers, error) {
	m := &measure{}
	tr := e.tr
	mix := &jobMix{rng: rand.New(rand.NewSource(e.jobSeed))}
	stateDir := filepath.Join(e.workdir, fmt.Sprintf("svc-%d", os.Getpid()))

	var d *daemon
	var c *svcClient
	probe := jobReq{Tenant: "setup", Spec: jobSpec{Kind: "single", CPUs: 4, Ops: 2000, Seed: 1, Bench: "EP"}}
	var probeID string
	for rep := 0; rep < svcSetupReps; rep++ {
		if d != nil {
			c.close()
			d.stop()
		}
		sp := tr.begin("setup", 0)
		var err error
		if d, err = startDaemon(e.hmcservd, stateDir); err != nil {
			return nil, nil, err
		}
		c = newSvcClient(d.base)
		if probeID, err = c.post(probe, nil); err != nil {
			d.stop()
			return nil, nil, err
		}
		cpu, err := cpuOf(d.cmd.Process.Pid)
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		m.setup = append(m.setup, cpu.Seconds())
		tr.end(sp)
		if err := c.awaitDone(probeID); err != nil {
			d.stop()
			return nil, nil, err
		}
	}
	defer d.stop()
	defer c.close()

	// Open loop: whole decks of jobs due on a fixed schedule regardless of
	// completions. Each job is submitted from its own goroutine; one
	// watcher sees them end.
	pid := d.cmd.Process.Pid
	nOpen := svcDeck * max(1, int(svcRate*svcOpenShare*e.seconds/svcDeck+0.5))
	open := make([]svcJob, nOpen)
	resetPeakRSS(pid)
	due := dueTimes(nOpen, svcRate)
	var wg sync.WaitGroup
	submitted := make(chan *svcJob, nOpen)
	watched := make(chan struct{})
	ticks := readTicks()
	t0 := time.Now()
	go func() {
		defer close(watched)
		c.watch(t0, submitted, tr)
	}()
	for i := range open {
		open[i].req, open[i].due = mix.next(), due[i]
		time.Sleep(time.Until(t0.Add(due[i])))
		wg.Add(1)
		go func(j *svcJob) {
			defer wg.Done()
			j.span = tr.begin("job", 0)
			s := tr.begin("jobserv.submit", j.span)
			j.id, j.err = c.post(j.req, func() { j.sent = time.Since(t0) })
			tr.end(s)
			j.accepted = time.Since(t0)
			if j.err != nil {
				tr.end(j.span)
				return
			}
			j.wait = tr.begin("jobserv.wait", j.span)
			submitted <- j
		}(&open[i])
	}
	wg.Wait()
	close(submitted)
	<-watched
	m.peaks = append(m.peaks, peakRSSMB(pid))

	// Drains: a fixed backlog submitted at once, until the time is up.
	var drained []svcJob
	queueMax := 0
	for k := 0; k < svcDrains || time.Since(t0).Seconds() < e.seconds; k++ {
		resetPeakRSS(pid)
		sp := tr.begin("drain", 0)
		c0, err := cpuOf(pid)
		if err != nil {
			return nil, nil, err
		}
		d0 := time.Now()
		batch := make([]svcJob, svcBacklog)
		for i := range batch {
			batch[i].req = mix.next()
			batch[i].id, batch[i].err = c.post(batch[i].req, nil)
		}
		// The queue is deepest once the whole backlog is in.
		s, err := c.status()
		if err != nil {
			return nil, nil, err
		}
		queueMax = max(queueMax, s.Queued)
		// Long-polls in submission order: cheap for the daemon, and the
		// last one returns when the backlog has drained.
		for i := range batch {
			if batch[i].err == nil {
				batch[i].err = c.awaitDone(batch[i].id)
			}
		}
		wall := time.Since(d0)
		c1, err := cpuOf(pid)
		if err != nil {
			return nil, nil, err
		}
		tr.end(sp)
		m.units = append(m.units, (c1 - c0).Seconds())
		m.walls = append(m.walls, wall.Seconds())
		m.peaks = append(m.peaks, peakRSSMB(pid))
		drained = append(drained, batch...)
	}
	m.steal = stealPct(ticks, readTicks())

	// Check every job against the same spec run directly; collect the
	// open-loop latencies of the jobs that passed.
	want := map[jobSpec]direct{}
	refused := 0
	check := func(j svcJob) (direct, bool) {
		m.attempted++
		if j.err != nil {
			if j.id == "" {
				refused++
			}
			m.fail("%s %v: %v", j.req.Tenant, j.req.Spec, j.err)
			return direct{}, false
		}
		w, ok := want[j.req.Spec]
		if !ok {
			var err error
			if w, err = runDirect(nil, j.req.Spec); err != nil {
				m.fail("direct %v: %v", j.req.Spec, err)
				return direct{}, false
			}
			want[j.req.Spec] = w
		}
		got, err := c.summary(j.id)
		if err != nil {
			m.fail("job %s: %v", j.id, err)
			return direct{}, false
		}
		if got != w.summary {
			m.fail("job %s %v: summary differs from the direct run", j.id, j.req.Spec)
			return direct{}, false
		}
		return w, true
	}
	for i, j := range open {
		if _, ok := check(j); ok {
			m.ops = append(m.ops, opSample{ms: ms(j.done - j.due), window: i / svcDeck})
		}
	}
	for k, cpu := range m.units {
		var accesses uint64
		for _, j := range drained[k*svcBacklog : (k+1)*svcBacklog] {
			if w, ok := check(j); ok {
				accesses += w.res.L1.Accesses
			}
		}
		m.accesses += accesses
		m.rates = append(m.rates, float64(accesses)/cpu/1e6)
	}
	if tr == nil {
		return m, nil, nil
	}

	lay := layers{}
	var submitMs []float64
	dueAt := make([]time.Duration, len(open))
	sentAt := make([]time.Duration, len(open))
	for i, j := range open {
		submitMs = append(submitMs, ms(j.accepted-j.sent))
		dueAt[i], sentAt[i] = j.due, j.sent
	}
	lay["jobserv.submit_ms_p50"] = percentile(submitMs, 0.50)
	lay["jobserv.submit_ms_p99"] = percentile(submitMs, 0.99)
	lay["jobserv.refused"] = float64(refused)
	lay["jobserv.queue_max"] = float64(queueMax)
	lay["jobserv.drain_jobs_s"] = svcBacklog / median(m.walls)
	lay["loadgen.late_ms_max"] = ms(maxLateness(dueAt, sentAt))

	// The drained jobs' specs, run directly through the library under
	// the profiler: what the daemon's slots execute, without the daemon.
	prof, err := startProfile(e.workdir)
	if err != nil {
		return nil, nil, err
	}
	tally := newSimTally()
	var execMs []float64
	var results []hmccoal.Result
	var gen time.Duration
	var accesses uint64
	steps := 0
	for _, j := range drained[:svcDrains*svcBacklog] {
		w, err := runDirect(tr, j.req.Spec)
		if err != nil {
			return nil, nil, err
		}
		execMs = append(execMs, ms(w.dur))
		tally.add(hmccoal.FrontendTwoPhase, w.b, w.r)
		results = append(results, w.res)
		gen += w.gen
		accesses += w.res.L1.Accesses
		steps += w.r.steps
	}
	if err := prof.stop(accesses, svcDrains, lay); err != nil {
		return nil, nil, err
	}
	lay["jobserv.exec_ms_p50"] = median(execMs)
	lay["workloads.gen_s"] = gen.Seconds() / svcDrains
	lay["workloads.accesses"] = float64(accesses) / svcDrains
	tally.fill(lay, steps/svcDrains)
	fillCounts(lay, results[:svcBacklog])
	return m, lay, nil
}
