package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0.10, 1}, {0.50, 5}, {0.90, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %v, want 2", got)
	}
	// Per window, the geometric mean over kinds: 2, 6 and 200; the
	// median over windows ignores the slow third one.
	m := measure{ops: []opSample{
		{1, 0, 0}, {4, 1, 0},
		{3, 0, 1}, {12, 1, 1},
		{100, 0, 2}, {400, 1, 2},
	}}
	if got := m.opPercentile(0.5); math.Abs(got-6) > 1e-9 {
		t.Errorf("opPercentile(0.5) = %v, want 6", got)
	}
}

func TestLateness(t *testing.T) {
	due := dueTimes(4, 2)
	want := []time.Duration{0, 500 * time.Millisecond, time.Second, 1500 * time.Millisecond}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("dueTimes(4, 2) = %v, want %v", due, want)
		}
	}
	sent := []time.Duration{
		due[0] + time.Millisecond,
		due[1],
		due[2] + 5*time.Millisecond,
		due[3] - 2*time.Millisecond, // early counts as on time
	}
	if got := maxLateness(due, sent); got != 5*time.Millisecond {
		t.Errorf("maxLateness = %v, want 5ms", got)
	}
	if got := maxLateness(due[:1], []time.Duration{-time.Second}); got != 0 {
		t.Errorf("maxLateness of an early send = %v, want 0", got)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hmccoal/internal/cache.(*Cache).Access":              "hmccoal/internal/cache",
		"hmccoal/internal/sweep.MapBatch[go.shape.int].func1": "hmccoal/internal/sweep",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
		"hmccoal.RunAllContext.func1":             "hmccoal",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if layerOf("internal/runtime/maps") != "runtime" || layerOf("hmccoal/internal/mshr") != "mshr" ||
		layerOf("hmccoal/internal/trace") != "workloads" || layerOf("hmccoal") != "" {
		t.Error("layerOf misattributes packages")
	}
	traces := `Type: cpu
Duration: 2s, Total samples = 1.53s (76.50%)
-----------+-------------------------------------------------------
      20ms   hmccoal/internal/cache.(*Cache).Access (inline)
             hmccoal/internal/sim.(*System).Step
-----------+-------------------------------------------------------
     1.50s   runtime.mallocgc
             hmccoal/internal/sim.NewSystem
-----------+-------------------------------------------------------
      10ms   hmccoal/internal/cache.(*Cache).Fill
-----------+-------------------------------------------------------
`
	self, total, err := selfByPackage(traces)
	if err != nil {
		t.Fatal(err)
	}
	if self["hmccoal/internal/cache"] != 30e6 || self["runtime"] != 1.5e9 || len(self) != 2 || total != 1.53e9 {
		t.Errorf("selfByPackage = %v, total %v", self, total)
	}
}

// TestSchema holds the metric lists to BENCHMARK.json.
func TestSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(name string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", name, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", name, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestWorkloads runs every workload traced for the shortest possible time
// (one unit of work per phase) and checks the result line: correct, and
// every per-layer metric, the traced and untraced end-to-end ones among
// them, present with its unit.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	servd := filepath.Join(dir, "hmcservd")
	build := exec.Command("go", "build", "-o", servd, "hmccoal/cmd/hmcservd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build hmcservd: %v\n%s", err, out)
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			args := []string{"-workload", name, "-seed", "3", "-seconds", "0.01", "-trace", "1", "-workdir", dir, "-hmcservd", servd}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("metric %s: got %+v, want unit %q", d.Name, got, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if v := res.Metrics["untraced."+d.Name].Value; v <= 0 {
					t.Errorf("untraced.%s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}
