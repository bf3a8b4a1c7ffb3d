package hmccoal

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestBatchedSweepDeterminism is the batch engine's contract at the driver
// layer: a sweep run with lockstep batching (-batch) must produce
// byte-identical results to the serial per-job pipeline, at any width.
func TestBatchedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	p := sweepTestParams()
	serial, err := RunAllContext(context.Background(), p, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 8} {
		batched, err := RunAllContext(context.Background(), p, SweepOptions{Workers: 1, Batch: batch})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if !reflect.DeepEqual(serial, batched) {
			t.Fatalf("batch=%d: results differ from serial sweep", batch)
		}
		a, _ := json.Marshal(serial)
		b, _ := json.Marshal(batched)
		if string(a) != string(b) {
			t.Fatalf("batch=%d: serialized results differ", batch)
		}
	}
	// Batching and parallelism compose.
	both, err := RunAllContext(context.Background(), p, SweepOptions{Workers: 3, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, both) {
		t.Fatal("workers=3 batch=4: results differ from serial sweep")
	}
}

// TestBatchedTimeoutAndFaultSweeps checks the remaining batched drivers
// against their serial outputs.
func TestBatchedTimeoutAndFaultSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()

	timeouts := []uint64{16, 28}
	serialT, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, SweepOptions{Workers: 1}, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	batchedT, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, SweepOptions{Workers: 1, Batch: 2}, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialT, batchedT) {
		t.Fatalf("timeout sweep differs: serial %v batched %v", serialT, batchedT)
	}

	bers := []float64{0, 1e-5}
	serialF, err := FaultSweepContext(context.Background(), "STREAM", p, 3, bers, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	batchedF, err := FaultSweepContext(context.Background(), "STREAM", p, 3, bers, SweepOptions{Workers: 1, Batch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialF, batchedF) {
		t.Fatal("fault sweep differs between batched and serial runs")
	}

	entries := []int{8, 16}
	serialM, err := presetOut[[]float64]("mshr", "efficiency", "FT", p, SweepOptions{Workers: 1}, AxisOf("mshr", entries))
	if err != nil {
		t.Fatal(err)
	}
	batchedM, err := presetOut[[]float64]("mshr", "efficiency", "FT", p, SweepOptions{Workers: 1, Batch: 2}, AxisOf("mshr", entries))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialM, batchedM) {
		t.Fatalf("MSHR sweep differs: serial %v batched %v", serialM, batchedM)
	}
}

// TestTraceCacheRetention pins the trace cache's retention contract. On
// a walk that is not whole (a dsweep worker's view of a sweep): an entry
// a group holds survives any number of newer misses, an idle entry is
// evicted once the walk reaches a later benchmark, the walk's furthest
// trace stays resident as a hit, and a group behind it does not move the
// walk back. Interleaved walks each keep their own trace, a walk trailing
// another reuses the traces generated before its latest group, and idle
// walks beyond the most groups ever run at once are forgotten. A whole
// walk keeps a trace until every job of its benchmark has run, however
// late.
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
	type group struct {
		held    map[int]*traceEntry
		release func()
	}
	hold := func(spec string, g *sweepGrid, idxs ...int) group {
		held, release := c.hold(spec, g, sweepTestParams(), idxs)
		return group{held, release}
	}
	release := func(gr group) { gr.release() }
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
	accs, idx, err := first.held[0].load()
	if err != nil || len(accs) == 0 || idx == nil {
		t.Fatalf("load returned no trace (err %v)", err)
	}
	for i := 1; i < 4; i++ {
		release(hold(a, ga, i))
	}
	wantResident("after newer misses", map[string]bool{"STREAM": true, "EP": false, "FT": false, "CG": true})
	furthest := hold(a, ga, 3)
	again := hold(a, ga, 0)
	if accs2, idx2, _ := again.held[0].load(); &accs2[0] != &accs[0] || idx2 != idx {
		t.Fatal("a hit rebuilt the trace instead of sharing it")
	}
	release(again)
	wantResident("while another group holds it", map[string]bool{"STREAM": true})
	release(first)
	release(furthest)
	wantResident("after release behind the walk", map[string]bool{"STREAM": false, "CG": true})
	release(hold(a, ga, 1))
	wantResident("after a late group", map[string]bool{"EP": false, "CG": true})
	if want := (TraceCacheStats{Hits: 2, Misses: 5, Evictions: 4}); c.stats != want {
		t.Fatalf("stats %+v, want %+v", c.stats, want)
	}

	// Two walks interleaved one group at a time each keep their trace; a
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
	// generated before its latest group, and once it stops getting
	// groups, a's newer traces go as a moves past them.
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
	release(hold(e, ge, 0, 1, 2))
	release(hold(e, ge, 4))
	wantResident("before the late job", map[string]bool{"STREAM": true, "EP": true})
	release(hold(e, ge, 3))
	wantResident("after the late job", map[string]bool{"STREAM": false, "EP": true})
	end()
	wantResident("after the sweep", map[string]bool{"EP": false})
	if want := (TraceCacheStats{Hits: 1, Misses: 2, Evictions: 2}); c.stats != want {
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
