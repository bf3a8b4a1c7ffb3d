package hmccoal

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
)

func sweepTestParams() TraceParams {
	return TraceParams{CPUs: 2, OpsPerCPU: 150, Seed: 7}
}

// presetOut runs the named preset through RunPreset, the entry point the
// binaries use, and returns its result under key.
func presetOut[T any](name, key, bench string, p TraceParams, opt SweepOptions, override ...Axis) (T, error) {
	out, err := RunPreset(context.Background(), name, bench, p, opt, override...)
	v, _ := out[key].(T)
	return v, err
}

// TestParallelSweepDeterminism is the tentpole's correctness contract: the
// parallel sweep must produce byte-identical Results to the serial
// (-workers 1) pipeline, at any worker count.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	p := sweepTestParams()
	serial, err := RunAllContext(context.Background(), p, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(Benchmarks()) {
		t.Fatalf("serial sweep has %d runs, want %d", len(serial), len(Benchmarks()))
	}
	for _, workers := range []int{0, 3, 16} {
		parallel, err := RunAllContext(context.Background(), p, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: results differ from serial sweep", workers)
		}
		// Byte-identical, not just structurally equal.
		a, _ := json.Marshal(serial)
		b, _ := json.Marshal(parallel)
		if string(a) != string(b) {
			t.Fatalf("workers=%d: serialized results differ", workers)
		}
	}
}

func TestParallelTimeoutSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	p := sweepTestParams()
	timeouts := []uint64{16, 28}
	serial, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, SweepOptions{Workers: 1}, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := presetOut[[]float64]("timeout", "latencies_ns", "SG", p, SweepOptions{Workers: 4}, AxisOf("timeout", timeouts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("timeout sweep differs: serial %v parallel %v", serial, parallel)
	}
	table1, err := Figure14TableContext(context.Background(), p, timeouts, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tableN, err := Figure14TableContext(context.Background(), p, timeouts, SweepOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if table1 != tableN {
		t.Fatalf("Figure 14 table differs between worker counts:\n%s\nvs\n%s", table1, tableN)
	}
}

func TestSweepProgressReporting(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	var mu sync.Mutex
	var last, calls, total int
	_, err := RunAllContext(context.Background(), sweepTestParams(), SweepOptions{
		Progress: func(done, n int) {
			mu.Lock()
			defer mu.Unlock()
			if done != last+1 {
				t.Errorf("progress jumped from %d to %d", last, done)
			}
			last, calls, total = done, calls+1, n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * len(Benchmarks()) // 3 architectures + payload analysis each
	if calls != want || total != want {
		t.Errorf("progress: %d calls, grid %d; want %d", calls, total, want)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAllContext(ctx, sweepTestParams(), SweepOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

func TestSweepErrorAborts(t *testing.T) {
	// An impossible trace scale makes every generator fail; the sweep must
	// surface the error instead of returning partial results.
	p := sweepTestParams()
	p.CPUs = 0
	if _, err := RunAllContext(context.Background(), p, SweepOptions{}); err == nil {
		t.Error("sweep with invalid params succeeded")
	}
}

// TestRunAllGeneratesEachTraceOnce runs RunAll through an explicit
// SweepRunner dispatcher — the executor every in-process sweep uses — and
// checks the grid's benchmark-by-benchmark walk pays one trace generation
// per benchmark, serial or with jobs in flight. That holds by
// construction because the sweep marks its walk whole on the
// runner, which the progress hook checks while the sweep runs.
func TestRunAllGeneratesEachTraceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	for _, opt := range []SweepOptions{{Workers: 1}, {Workers: 2}, {Workers: 12}} {
		r := NewSweepRunner()
		opt.Dispatch = r
		wholeWalks := 0
		opt.Progress = func(int, int) {
			r.cache.mu.Lock()
			defer r.cache.mu.Unlock()
			wholeWalks = 0
			for _, w := range r.cache.walks {
				if w.whole > 0 {
					wholeWalks++
				}
			}
		}
		if _, err := RunAllContext(context.Background(), sweepTestParams(), opt); err != nil {
			t.Fatal(err)
		}
		if wholeWalks != 1 {
			t.Errorf("workers=%d: %d whole walks during the sweep, want 1", opt.Workers, wholeWalks)
		}
		if s := r.CacheStats(); s.Misses != uint64(len(Benchmarks())) {
			t.Errorf("workers=%d: %+v; want one miss per benchmark (%d)", opt.Workers, s, len(Benchmarks()))
		}
	}
}

// TestSweepMoreThanTwelveCPUs pins that sweeps simulate as many CPUs as
// the trace has: a 16-CPU sweep runs, and its cells match a hand-built
// 16-CPU system replaying the same trace.
func TestSweepMoreThanTwelveCPUs(t *testing.T) {
	p := TraceParams{CPUs: 16, OpsPerCPU: 150, Seed: 7}
	const seed = 5
	rows, err := FaultSweepContext(context.Background(), "STREAM", p, seed, []float64{0}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := GenerateTrace("STREAM", p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hierarchy.CPUs = 16
	cfg.Mode = ModeTwoPhase
	cfg.HMC.Fault.Seed = seed
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Run(accs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows[0].TwoPhase, want) {
		t.Fatalf("16-CPU sweep cell differs from a 16-CPU system:\nsweep:\n%s\nsystem:\n%s", rows[0].TwoPhase.Summary(), want.Summary())
	}
}
