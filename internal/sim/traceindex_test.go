package sim

import (
	"reflect"
	"sync"
	"testing"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

// genStreams generates a benchmark's per-core streams at 12 CPUs.
func genStreams(t *testing.T, name string, ops int) trace.Streams {
	t.Helper()
	g, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	st, err := g.Generate(workloads.Params{CPUs: 12, OpsPerCPU: ops, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamIndexMatchesStart holds the sweep path — a run over the
// generated streams as they are — to the path of every other caller, Start
// on the tick-ordered trace, under both front-ends: the result and the
// payload analysis must both be the same.
func TestStreamIndexMatchesStart(t *testing.T) {
	for _, bench := range []string{"FT", "SSCA2", "Sort"} {
		st := genStreams(t, bench, 400)
		accs := st.Flatten()
		idx, err := NewStreamIndex(st, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, fe := range []coalescer.Kind{coalescer.KindTwoPhase, coalescer.KindWarp} {
			cfg := DefaultConfig()
			cfg.Frontend = fe
			want := soloRun(t, cfg, accs)
			if got, err := mustSystem(t, cfg).RunIndexed(idx); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%v: RunIndexed over the streams differs from Start (err %v)", bench, fe, err)
			}
		}
		want, err := AnalyzePayload(DefaultConfig().Hierarchy, accs, 16)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := mustSystem(t, DefaultConfig()).AnalyzePayload(idx, 16); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: payload analysis over the streams differs from the tick-ordered trace (err %v)", bench, err)
		}
	}
}

// TestStreamIndexValidation covers NewStreamIndex's error paths: offsets
// that do not delimit one stream per CPU, an access in another CPU's
// stream or from a CPU the system lacks, and a stream out of tick order.
func TestStreamIndexValidation(t *testing.T) {
	acc := func(cpu uint8, tick uint64) trace.Access {
		return trace.Access{Addr: 64 * tick, Size: 8, CPU: cpu, Tick: tick}
	}
	good := trace.Streams{
		Accs: []trace.Access{acc(0, 1), acc(0, 4), acc(1, 2)},
		Off:  []int32{0, 2, 3},
	}
	if idx, err := NewStreamIndex(good, 2); err != nil || idx.CPUs() != 2 || idx.Len() != 3 {
		t.Fatalf("well-formed streams: index %v, err %v", idx, err)
	}
	for name, tc := range map[string]struct {
		st   trace.Streams
		cpus int
	}{
		"no CPUs":            {trace.Streams{Off: []int32{0}}, 0},
		"too few offsets":    {good, 3},
		"too many offsets":   {good, 1},
		"short last offset":  {trace.Streams{Accs: good.Accs, Off: []int32{0, 2, 2}}, 2},
		"nonzero first":      {trace.Streams{Accs: good.Accs, Off: []int32{1, 2, 3}}, 2},
		"decreasing":         {trace.Streams{Accs: good.Accs, Off: []int32{0, 3, 2, 3}}, 3},
		"other CPU's access": {trace.Streams{Accs: []trace.Access{acc(1, 1), acc(0, 2)}, Off: []int32{0, 1, 2}}, 2},
		"CPU beyond system":  {trace.Streams{Accs: []trace.Access{acc(0, 1), acc(2, 2)}, Off: []int32{0, 1, 2}}, 2},
		"out of tick order":  {trace.Streams{Accs: []trace.Access{acc(0, 5), acc(0, 4)}, Off: []int32{0, 2}}, 1},
	} {
		if _, err := NewStreamIndex(tc.st, tc.cpus); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewTraceIndex([]trace.Access{acc(0, 1), acc(2, 2)}, 2); err == nil {
		t.Error("NewTraceIndex accepted an access from a CPU the system lacks")
	}
}

// TestSharedIndexConcurrentFilters runs one TraceIndex concurrently on
// Systems with the default L1 and with a 16 KiB L1, two runs of each,
// beside a payload analysis, over Health: its in-place updates leave
// dirty lines that only the smaller L1 evicts. The index keeps one
// private-level filter per (L1, L2) pair, built under its lock by
// whichever run comes first, so each Result must equal a fresh System's
// run on its own fresh index, and the two L1s must see different totals.
// Run it under -race.
func TestSharedIndexConcurrentFilters(t *testing.T) {
	accs := genTrace(t, "Health", 300)
	small := DefaultConfig()
	small.Hierarchy.L1.SizeBytes = 16 << 10
	cfgs := []Config{DefaultConfig(), small, DefaultConfig(), small}
	idx, err := NewTraceIndex(accs, 12)
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]*System, len(cfgs)+1)
	for i := range systems {
		systems[i] = mustSystem(t, DefaultConfig())
		if i < len(cfgs) {
			systems[i] = mustSystem(t, cfgs[i])
		}
	}
	got := make([]string, len(cfgs))
	var pay PayloadAnalysis
	var payErr error
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == len(cfgs) {
				pay, payErr = systems[i].AnalyzePayload(idx, 16)
				return
			}
			got[i] = outcome(systems[i].RunIndexed(idx))
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		fresh, err := NewTraceIndex(accs, 12)
		if err != nil {
			t.Fatal(err)
		}
		if want := outcome(mustSystem(t, cfg).RunIndexed(fresh)); got[i] != want {
			t.Errorf("run %d (L1 %d B) on the shared index:\n got %s\nwant %s", i, cfg.Hierarchy.L1.SizeBytes, got[i], want)
		}
	}
	if got[0] == got[1] {
		t.Error("the 32 KiB and 16 KiB L1 runs agree: the index does not key its filters by L1")
	}
	if want, err := AnalyzePayload(DefaultConfig().Hierarchy, accs, 16); payErr != nil || err != nil || !reflect.DeepEqual(pay, want) {
		t.Errorf("payload analysis on the shared index differs from a fresh one (errors %v, %v)", payErr, err)
	}
	if len(idx.filters) != 2 {
		t.Errorf("index holds %d filters, want one per L1 size", len(idx.filters))
	}
}
