package hmccoal

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// freshCells computes every cell of a spec the way no pool can touch: a
// freshly built System per simulation job, a fresh hierarchy per payload
// analysis.
func freshCells(t *testing.T, s SweepSpec) []SweepCell {
	t.Helper()
	g, err := s.compile()
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]SweepCell, g.n())
	for i := range cells {
		accs, err := GenerateTrace(g.benches[i/g.perBench], s.Params)
		if err != nil {
			t.Fatal(err)
		}
		if g.isPayload(i) {
			cells[i].Pay, err = AnalyzePayload(g.base, accs)
		} else {
			var sys *System
			if sys, err = NewSystem(g.cfg(i)); err == nil {
				cells[i].Res, err = sys.Run(accs)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", g.name(i), err)
		}
	}
	return cells
}

// TestSweepReuseMatchesFresh is the pooled-reuse contract at the driver
// layer: grids of every shape — runall with its payload analyses, the
// speedup grid at two CPU counts, the fault grid with BER>0 jobs between
// clean ones, the stride grid's front-end × scheduler axes, and the
// timeout and mshr grids — run back to back through one SweepRunner at 1
// and 2 workers, then the two speedup grids interleaved job by job (two
// hierarchies in one pool), and every cell equals a fresh System's run of
// that job.
func TestSweepReuseMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("several full sweeps")
	}
	p := sweepTestParams()
	p4 := p
	p4.CPUs = 4
	var specs []SweepSpec
	for _, c := range []struct {
		preset, bench string
		p             TraceParams
	}{
		{"runall", "", p}, {"speedup", "", p}, {"speedup", "", p4}, {"fault", "STREAM", p},
		{"stride", "", p}, {"timeout", "SG", p}, {"mshr", "FT", p},
	} {
		pr, err := LookupPreset(c.preset)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pr.Spec(c.bench, c.p, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	want := make([][]SweepCell, len(specs))
	for k, s := range specs {
		want[k] = freshCells(t, s)
	}
	for _, workers := range []int{1, 2} {
		r := NewSweepRunner()
		for k, s := range specs {
			got, err := mapSpec(context.Background(), s, SweepOptions{Workers: workers, Dispatch: r})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			g, _ := s.compile()
			for i := range got {
				if !reflect.DeepEqual(got[i], want[k][i]) {
					t.Errorf("workers=%d: pooled %s at %d CPUs differs from a fresh System", workers, g.name(i), s.Params.CPUs)
				}
			}
		}
		if n := r.pool.Len(); n < 1 || n > r.cache.peak {
			t.Errorf("workers=%d: pool holds %d Systems after the sweeps, peak concurrency %d", workers, n, r.cache.peak)
		}
	}

	// The two speedup grids interleaved job by job on one runner, as a
	// dsweep worker serving two sweeps runs them: every Get passes over
	// the other hierarchy's idle System.
	r := NewSweepRunner()
	for i := range want[1] {
		for _, k := range []int{1, 2} {
			raw, err := json.Marshal(specs[k])
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.RunJob(context.Background(), raw, i)
			if err != nil {
				t.Fatal(err)
			}
			var cell SweepCell
			if err := json.Unmarshal(got, &cell); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cell, want[k][i]) {
				t.Errorf("interleaved: speedup job %d at %d CPUs differs from a fresh System", i, specs[k].Params.CPUs)
			}
		}
	}
}

// TestBatchedSweepDeterminism: a RunAll sweep whose jobs run on Systems
// pooled by one SweepRunner — a second sweep through the same runner
// starts on the first one's Systems, and workers share them — produces
// byte-identical results to a serial sweep on a runner of its own.
func TestBatchedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	p := sweepTestParams()
	serial, err := RunAllContext(context.Background(), p, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(serial)
	r := NewSweepRunner()
	for _, workers := range []int{1, 1, 3} {
		pooled, err := RunAllContext(context.Background(), p, SweepOptions{Workers: workers, Dispatch: r})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, pooled) {
			t.Fatalf("workers=%d: pooled results differ from serial sweep", workers)
		}
		if b, _ := json.Marshal(pooled); string(a) != string(b) {
			t.Fatalf("workers=%d: serialized results differ", workers)
		}
	}
}

// TestBatchedTimeoutAndFaultSweeps checks the timeout, fault and mshr
// drivers run back to back through one SweepRunner at two workers — each
// sweep's jobs starting on Systems the previous sweep left in the pool —
// against their serial outputs.
func TestBatchedTimeoutAndFaultSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	pooled := SweepOptions{Workers: 2, Dispatch: NewSweepRunner()}

	timeouts := []uint64{16, 28}
	serialT, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, SweepOptions{Workers: 1}, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	pooledT, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, pooled, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialT, pooledT) {
		t.Fatalf("timeout sweep differs: serial %v pooled %v", serialT, pooledT)
	}

	bers := []float64{0, 1e-5}
	serialF, err := FaultSweepContext(context.Background(), "STREAM", p, 3, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooledF, err := FaultSweepContext(context.Background(), "STREAM", p, 3, bers, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialF, pooledF) {
		t.Fatal("fault sweep differs between pooled and serial runs")
	}

	entries := []int{8, 16}
	serialM, err := presetOut[[]float64]("mshr", "efficiency", "FT", p, SweepOptions{Workers: 1}, AxisOf("mshr", entries))
	if err != nil {
		t.Fatal(err)
	}
	pooledM, err := presetOut[[]float64]("mshr", "efficiency", "FT", p, pooled, AxisOf("mshr", entries))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialM, pooledM) {
		t.Fatalf("MSHR sweep differs: serial %v pooled %v", serialM, pooledM)
	}
}

// TestSweepRunnerJobErrorNamesJob: a failing job returns an error naming
// the job, and the runner's pool stays usable for the jobs after it.
func TestSweepRunnerJobErrorNamesJob(t *testing.T) {
	s := SweepSpec{Params: sweepTestParams(), Benches: []string{"FT", "NOPE"}, Axes: []Axis{AxisOf("mshr", []int{8, 16})}}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := freshCells(t, SweepSpec{Params: s.Params, Benches: s.Benches[:1], Axes: s.Axes})
	r := NewSweepRunner()
	for _, i := range []int{0, 1, 2, 1, 0} {
		got, err := r.RunJob(context.Background(), raw, i)
		if i == 2 {
			if err == nil || !strings.Contains(err.Error(), "job 2 (NOPE/mshr=8)") {
				t.Fatalf("error %v does not name job 2 (NOPE/mshr=8)", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var cell SweepCell
		if err := json.Unmarshal(got, &cell); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cell, want[i]) {
			t.Errorf("job %d differs from a fresh System", i)
		}
	}
}

// TestTraceCacheRetention pins the trace cache's retention contract. On
// a walk that is not whole (a dsweep worker's view of a sweep): an entry
// a job holds survives any number of newer misses, an idle entry is
// evicted once the walk reaches a later benchmark, the walk's furthest
// trace stays resident as a hit, and a job behind it does not move the
// walk back. Interleaved walks each keep their own trace, a walk trailing
// another reuses the traces generated before its latest job, and idle
// walks beyond the most jobs ever run at once are forgotten. A whole walk
// keeps a trace until every job of its benchmark has run, however late.
func TestTraceCacheRetention(t *testing.T) {
	benches := []string{"STREAM", "EP", "FT", "CG", "LU"}
	walkSpec := func(axis Axis) (string, *sweepGrid) {
		s := SweepSpec{Params: sweepTestParams(), Benches: benches, Axes: []Axis{axis}}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.compile()
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), g
	}
	var c *traceCache
	resident := func(b string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.m[traceKey{bench: b, p: sweepTestParams()}] != nil
	}
	type held struct {
		e       *traceEntry
		release func()
	}
	hold := func(spec string, g *sweepGrid, i int) held {
		e, release := c.hold(spec, g, sweepTestParams(), i)
		return held{e, release}
	}
	release := func(h held) { h.release() }
	wantResident := func(when string, want map[string]bool) {
		t.Helper()
		for b, in := range want {
			if resident(b) != in {
				t.Fatalf("%s: %s resident %v, want %v", when, b, !in, in)
			}
		}
	}

	// One timeout per benchmark: job i runs benches[i].
	c = new(traceCache)
	a, ga := walkSpec(AxisOf("timeout", []int{16}))
	first := hold(a, ga, 0)
	idx, err := first.e.load()
	if err != nil || idx == nil || idx.Len() == 0 || c.stats.Misses != 1 {
		t.Fatalf("load returned no trace (err %v) or missed %d times, want once", err, c.stats.Misses)
	}
	for i := 1; i < 4; i++ {
		release(hold(a, ga, i))
	}
	wantResident("after newer misses", map[string]bool{"STREAM": true, "EP": false, "FT": false, "CG": true})
	furthest := hold(a, ga, 3)
	before := c.stats
	again := hold(a, ga, 0)
	if idx2, _ := again.e.load(); idx2 != idx || c.stats.Misses != before.Misses || c.stats.Hits != before.Hits+1 {
		t.Fatalf("a hit rebuilt the trace instead of sharing it (stats %+v, then %+v)", before, c.stats)
	}
	release(again)
	wantResident("while another job holds it", map[string]bool{"STREAM": true})
	release(first)
	release(furthest)
	wantResident("after release behind the walk", map[string]bool{"STREAM": false, "CG": true})
	release(hold(a, ga, 1))
	wantResident("after a late job", map[string]bool{"EP": false, "CG": true})
	if want := (TraceCacheStats{Hits: 2, Misses: 5, Evictions: 4}); c.stats != want {
		t.Fatalf("stats %+v, want %+v", c.stats, want)
	}

	// Two walks interleaved one job at a time each keep their trace; a
	// third forgets the least recently used.
	c = new(traceCache)
	b, gb := walkSpec(AxisOf("timeout", []int{28}))
	d, gd := walkSpec(AxisOf("timeout", []int{40}))
	for k := 0; k < 2; k++ {
		release(hold(a, ga, 0))
		release(hold(b, gb, 1))
	}
	release(hold(d, gd, 2))
	wantResident("after a third walk", map[string]bool{"STREAM": false, "EP": true, "FT": true})
	if want := (TraceCacheStats{Hits: 2, Misses: 3, Evictions: 1}); c.stats != want {
		t.Fatalf("interleaved stats %+v, want %+v", c.stats, want)
	}

	// b trails a over the same trace parameters: it reuses a's traces
	// generated before its latest job, and once it stops getting jobs,
	// a's newer traces go as a moves past them.
	c = new(traceCache)
	for _, step := range []struct {
		spec string
		g    *sweepGrid
		i    int
	}{{a, ga, 0}, {b, gb, 0}, {a, ga, 1}, {b, gb, 0}, {a, ga, 2}, {b, gb, 1}, {a, ga, 3}, {a, ga, 4}} {
		release(hold(step.spec, step.g, step.i))
	}
	wantResident("after a leads b", map[string]bool{"STREAM": false, "EP": true, "FT": true, "CG": false, "LU": true})
	if want := (TraceCacheStats{Hits: 3, Misses: 5, Evictions: 2}); c.stats != want {
		t.Fatalf("trailing stats %+v, want %+v", c.stats, want)
	}

	// A whole RunAll walk (four jobs per benchmark) keeps STREAM for its
	// late fourth job after moving on to EP, and drops it once that job
	// has run.
	c = new(traceCache)
	e, ge := walkSpec(Axis{"mode", []string{"MSHR-based", "DMC-only", "two-phase", payloadCell}})
	end := c.whole(e, ge, sweepTestParams())
	for i := range 3 {
		release(hold(e, ge, i))
	}
	release(hold(e, ge, 4))
	wantResident("before the late job", map[string]bool{"STREAM": true, "EP": true})
	release(hold(e, ge, 3))
	wantResident("after the late job", map[string]bool{"STREAM": false, "EP": true})
	end()
	wantResident("after the sweep", map[string]bool{"EP": false})
	if want := (TraceCacheStats{Hits: 3, Misses: 2, Evictions: 2}); c.stats != want {
		t.Fatalf("whole-walk stats %+v, want %+v", c.stats, want)
	}
}

// TestFaultSweepTableNoData checks the speedup column: a row whose runs
// never executed renders "n/a", not a bogus 0% ratio; a real row renders
// its percentage.
func TestFaultSweepTableNoData(t *testing.T) {
	real := FaultSweepRow{BER: 1e-6}
	real.Baseline.RuntimeCycles = 2000
	real.TwoPhase.RuntimeCycles = 1500
	empty := FaultSweepRow{BER: 1e-5} // never ran: zero baseline

	if real.Speedup() != 0.25 {
		t.Fatalf("real row speedup %v, want 0.25", real.Speedup())
	}
	if empty.Speedup() != 0 || empty.HasData() {
		t.Fatal("empty row claims data")
	}

	table := FaultSweepTable([]FaultSweepRow{real, empty})
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header + rule + 2 rows:\n%s", len(lines), table)
	}
	if !strings.Contains(lines[2], "25.00%") {
		t.Errorf("row with data lacks its speedup:\n%s", table)
	}
	if !strings.Contains(lines[3], "n/a") {
		t.Errorf("row without data does not render n/a:\n%s", table)
	}
}
