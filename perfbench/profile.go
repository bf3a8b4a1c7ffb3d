package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root span) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// profiler is a CPU profile plus runtime counters over one traced phase.
type profiler struct {
	f      *os.File
	before []metrics.Sample
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// startProfile starts a CPU profile written to a file in dir.
func startProfile(dir string) (*profiler, error) {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &profiler{f: f, before: readRuntime()}, nil
}

// stop ends the phase and fills lay with each profiled layer's self time
// per simulated access, the unclaimed share, the GC share of busy CPU and
// the heap allocated per unit of work.
func (p *profiler) stop(accesses uint64, units int, lay layers) error {
	after := readRuntime()
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return err
	}
	delta := make([]float64, len(after))
	for i := range after {
		delta[i] = sampleValue(after[i]) - sampleValue(p.before[i])
	}
	if busy := delta[1] - delta[2]; busy > 0 {
		lay["runtime.gc_pct"] = 100 * delta[0] / busy
	}
	if units > 0 {
		lay["runtime.alloc_mb"] = delta[3] / 1e6 / float64(units)
	}
	out, err := exec.Command("go", "tool", "pprof", "-symbolize=none", "-traces", p.f.Name()).Output()
	if err != nil {
		return fmt.Errorf("perfbench: go tool pprof: %w", err)
	}
	self, total, err := selfByPackage(string(out))
	if err != nil {
		return err
	}
	claimed := 0.0
	for _, l := range profiledLayers {
		ns := 0.0
		for pkg, v := range self {
			if layerOf(pkg) == l {
				ns += v
			}
		}
		claimed += ns
		if accesses > 0 {
			lay[l+".self_ns_acc"] = ns / float64(accesses)
		}
	}
	if total > 0 {
		lay["other.share"] = (total - claimed) / total
	}
	return nil
}

// layerOf maps an import path to its profiled layer, or "" for none.
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	name, ok := strings.CutPrefix(pkg, "hmccoal/internal/")
	if !ok {
		return ""
	}
	if name == "trace" { // trace.Merge orders what the generators emit
		return "workloads"
	}
	for _, l := range profiledLayers {
		if l == name {
			return l
		}
	}
	return ""
}

// pkgOf is the import path of a symbol name as pprof records it, e.g.
// "hmccoal/internal/cache.(*Cache).Access" → "hmccoal/internal/cache".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// selfByPackage reads `go tool pprof -traces` output of a CPU profile and
// sums each sample's CPU nanoseconds under the package of its leaf
// (innermost inlined) function, the first frame after each separator. It
// returns the per-package sums and their total.
func selfByPackage(traces string) (map[string]float64, float64, error) {
	self := map[string]float64{}
	total := 0.0
	leaf := false
	for _, line := range strings.Split(traces, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			leaf = true
			continue
		}
		if !leaf {
			continue
		}
		leaf = false
		f := strings.Fields(line)
		if len(f) == 0 { // the closing separator
			continue
		}
		if len(f) < 2 {
			return nil, 0, fmt.Errorf("perfbench: profile: bad trace line %q", line)
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, 0, fmt.Errorf("perfbench: profile: %w", err)
		}
		self[pkgOf(f[1])] += float64(d)
		total += float64(d)
	}
	return self, total, nil
}
