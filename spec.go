package hmccoal

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hmccoal/internal/dsweep"
	"hmccoal/internal/sim"
)

// This file is the executing half of the sweep layer: a sweep grid as a
// serializable value and the runner that executes it. A SweepSpec plus a
// grid index is a pure description of one simulation job — benchmark
// trace, configuration, display name — identical on the coordinator and
// on every dsweep worker process, so a worker can reconstruct any job from
// the spec alone (traces are seeded and regenerate deterministically;
// nothing bulky crosses the wire). In-process sweeps and remote workers
// alike execute jobs through SweepRunner.RunJob, which is what makes the
// distributed output byte-identical to -workers 1 by construction.

// SweepSpec is the serializable description of one sweep grid: a list of
// benchmarks × an ordered list of axes. It is the unit the dsweep wire
// protocol ships: JSON-encoded, it travels inside every job message, and
// (spec, index) fully determines a job on any process — same trace
// generator seed, same configuration.
type SweepSpec struct {
	Params TraceParams `json:"params"`
	// Benches is the grid's outermost axis. It is carried explicitly so a
	// worker never depends on its own binary's benchmark list ordering.
	Benches []string `json:"benches"`
	// Axes are the grid's other dimensions; the last varies fastest.
	Axes []Axis `json:"axes"`
	// Seed is the fault-injection seed of a grid with a ber axis; 0 takes
	// Params.Seed.
	Seed uint64 `json:"seed,omitempty"`
	// Checks enables the runtime invariant checker in every job.
	Checks bool `json:"checks,omitempty"`
	// Variant is every job's machine; an axis over one of its fields
	// overrides that field.
	Variant
}

// Axis is one dimension of a sweep grid: the name of a row of the axis
// table and the values it takes, in grid order, in their text form.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// AxisOf builds an axis from typed values (timeouts, entry counts, error
// rates, modes), formatting each as the axis table parses it.
func AxisOf[T any](name string, values []T) Axis {
	a := Axis{Name: name}
	for _, v := range values {
		a.Values = append(a.Values, fmt.Sprint(v))
	}
	return a
}

// payloadCell is the mode-axis value of the payload-granularity analysis
// job, which runs no simulation.
const payloadCell = "payload"

// axisValue is one compiled axis value: its part of a job name and its
// change to the job's configuration (nil for the payload analysis).
type axisValue struct {
	label string
	apply func(*Config)
}

// axisDef is one row of the axis table.
type axisDef struct {
	// parse compiles a value of the axis in a grid with base
	// configuration base.
	parse func(s SweepSpec, base Config, v string) (axisValue, error)
	// fixed marks an axis whose values shape how a preset renders, so a
	// caller may not override them.
	fixed bool
	// unset clears the spec field the axis sweeps over, so every call of
	// a preset sweeping it has one fingerprint.
	unset func(*SweepSpec)
}

// variantAxis is the row of an axis over the Variant field that field
// points at, its values spelled as the field's flag spells them.
func variantAxis[T fmt.Stringer, P interface {
	*T
	encoding.TextUnmarshaler
}](field func(*Variant) P) axisDef {
	return axisDef{fixed: true, unset: func(s *SweepSpec) { *field(&s.Variant) = *new(T) },
		parse: func(_ SweepSpec, _ Config, v string) (axisValue, error) {
			var k T
			err := P(&k).UnmarshalText([]byte(v))
			return axisValue{k.String(), func(c *Config) { *field(&c.Variant) = k }}, err
		}}
}

// axisTable defines every axis a sweep grid can have.
var axisTable = map[string]axisDef{
	"mode": {fixed: true, parse: func(_ SweepSpec, _ Config, v string) (axisValue, error) {
		if v == payloadCell {
			return axisValue{label: v}, nil
		}
		for _, m := range []Mode{ModeBaseline, ModeDMCOnly, ModeTwoPhase} {
			if v == m.String() {
				return axisValue{v, func(c *Config) { c.Mode = m }}, nil
			}
		}
		return axisValue{}, fmt.Errorf("unknown mode %q", v)
	}},
	"timeout": {parse: func(_ SweepSpec, _ Config, v string) (axisValue, error) {
		t, err := strconv.ParseUint(v, 10, 64)
		return axisValue{fmt.Sprintf("T=%d", t), func(c *Config) { c.Coalescer.TimeoutCycles = t }}, err
	}},
	"mshr": {parse: func(_ SweepSpec, _ Config, v string) (axisValue, error) {
		n, err := strconv.Atoi(v)
		return axisValue{fmt.Sprintf("mshr=%d", n), func(c *Config) { c.Coalescer.MSHR.Entries = n }}, err
	}},
	"ber": {parse: func(s SweepSpec, base Config, v string) (axisValue, error) {
		ber, err := strconv.ParseFloat(v, 64)
		if err == nil && ber != 0 && base.Backend != BackendHMC {
			err = fmt.Errorf("error rate %g on the %v backend: fault injection is HMC-only", ber, base.Backend)
		}
		seed := s.Seed
		if seed == 0 {
			seed = uint64(s.Params.Seed)
		}
		return axisValue{fmt.Sprintf("ber=%g", ber), func(c *Config) { c.HMC.Fault.Seed, c.HMC.Fault.BER = seed, ber }}, err
	}},
	"frontend": variantAxis(func(v *Variant) *FrontendKind { return &v.Frontend }),
	"sched":    variantAxis(func(v *Variant) *SchedKind { return &v.Sched }),
}

// fingerprint is the checkpoint tag of the spec's grid: a short hex hash
// of its canonical JSON with Checks, which cannot change a result,
// zeroed.
func (s SweepSpec) fingerprint() (string, error) {
	s.Checks = false
	raw, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("hmccoal: sweep spec fingerprint: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}

// Dispatcher executes sweep jobs. RunJob blocks until job i of the grid
// spec describes completes somewhere and returns its JSON-encoded
// SweepCell. SweepRunner executes jobs in-process; the dsweep coordinator
// (internal/dsweep.Coordinator) hands them to worker processes with
// work-stealing and crash requeue.
type Dispatcher interface {
	RunJob(ctx context.Context, spec []byte, i int) (json.RawMessage, error)
}

// SweepCell is the universal per-job result of a sweep grid: the
// simulation Result, or the payload analysis of a payload-analysis job.
// It is what crosses the dsweep wire and what checkpoint lines store.
type SweepCell struct {
	Res Result          `json:"res"`
	Pay PayloadAnalysis `json:"pay"`
}

// sweepGrid is a compiled SweepSpec. Its index is mixed-radix:
// benchmark outermost, then the axes in order, the last fastest.
type sweepGrid struct {
	base     Config
	benches  []string
	perBench int // jobs per benchmark; job i runs benchmark i/perBench
	axes     [][]axisValue
}

// n is the grid's total job count.
func (g *sweepGrid) n() int { return len(g.benches) * g.perBench }

// values returns job i's value on every axis, in axis order.
func (g *sweepGrid) values(i int) []axisValue {
	vs := make([]axisValue, len(g.axes))
	r := i % g.perBench
	for k := len(g.axes) - 1; k >= 0; k-- {
		vs[k] = g.axes[k][r%len(g.axes[k])]
		r /= len(g.axes[k])
	}
	return vs
}

func (g *sweepGrid) isPayload(i int) bool {
	return slices.ContainsFunc(g.values(i), func(v axisValue) bool { return v.apply == nil })
}

// cfg is the configuration of job i, which must not be a payload
// analysis.
func (g *sweepGrid) cfg(i int) Config {
	cfg := g.base
	for _, v := range g.values(i) {
		v.apply(&cfg)
	}
	return cfg
}

// name is the display name of job i: its benchmark and axis labels.
func (g *sweepGrid) name(i int) string {
	parts := []string{g.benches[i/g.perBench]}
	for _, v := range g.values(i) {
		parts = append(parts, v.label)
	}
	return strings.Join(parts, "/")
}

// compile validates a spec and returns its grid: every axis value parses,
// and every simulation job's configuration passes Config.Validate. The
// local drivers and the remote workers both run jobs through it, so their
// configurations cannot diverge.
func (s SweepSpec) compile() (*sweepGrid, error) {
	base := DefaultConfig()
	base.Hierarchy.CPUs = s.Params.CPUs
	base.Checks = s.Checks
	base.Variant = s.Variant

	g := &sweepGrid{base: base, benches: s.Benches, perBench: 1}
	for _, a := range s.Axes {
		def, ok := axisTable[a.Name]
		if !ok {
			return nil, fmt.Errorf("hmccoal: sweep spec: unknown axis %q", a.Name)
		}
		vs := make([]axisValue, len(a.Values))
		for k, v := range a.Values {
			var err error
			if vs[k], err = def.parse(s, base, v); err != nil {
				return nil, fmt.Errorf("hmccoal: sweep spec: %s axis: %w", a.Name, err)
			}
		}
		g.axes = append(g.axes, vs)
		g.perBench *= len(vs)
	}
	if g.n() == 0 {
		return nil, fmt.Errorf("hmccoal: sweep spec: empty grid")
	}
	if slices.Contains(g.benches, "") {
		return nil, fmt.Errorf("hmccoal: sweep spec: empty benchmark name")
	}
	// A job's configuration does not depend on its benchmark.
	for i := 0; i < g.perBench; i++ {
		if g.isPayload(i) {
			continue
		}
		if err := g.cfg(i).Validate(); err != nil {
			return nil, fmt.Errorf("hmccoal: sweep spec: job %s: %w", g.name(i), err)
		}
	}
	return g, nil
}

// traceKey identifies one generated trace+index pair; the index is built
// for Params.CPUs CPUs, the same count the grid's systems simulate.
type traceKey struct {
	bench string
	p     TraceParams
}

// TraceCacheStats counts a SweepRunner's trace-cache behavior, one hit
// or miss per job it ran: a hit finds the job's trace already resident
// (or being generated by a concurrent job), a miss pays a full
// generation, and an eviction drops a trace that no job holds and no walk
// needs. The counters are monotonic over a SweepRunner's lifetime; they
// are the counters a dsweep worker ships back with every result, so the
// coordinator's Status() shows cache effectiveness per worker.
type TraceCacheStats = dsweep.CacheCounts

// traceCache shares generated traces across a runner's jobs. A trace
// stays resident while a job holds it; once idle, only while a walk — the
// runner's view of one sweep spec, whose grid visits its benchmarks in
// order — needs it. A whole walk (a sweep mapSpec runs entirely on this
// runner) needs a benchmark's trace until every job of that benchmark has
// run here, so the sweep pays one generation per benchmark however late a
// job arrives; jobs restored from a checkpoint never arrive, so a partly
// restored benchmark keeps its trace to the end. Any other walk (a dsweep
// worker sees only some jobs of each sweep) needs the trace of the
// furthest benchmark it has reached; a job behind it regenerates its
// trace without moving the walk back. Every walk also needs the traces
// ahead of it generated before its latest job, so a sweep trailing
// another over the same trace parameters reuses the leader's. Besides the
// walks with jobs running, the runner remembers as many idle walks as it
// has ever run jobs at once, least recently used going first. Distinct
// benchmarks generate concurrently; same-benchmark callers wait on the
// entry.
type traceCache struct {
	mu            sync.Mutex
	m             map[traceKey]*traceEntry
	walks         map[string]*walk // by raw spec
	running, peak int              // jobs holding entries: now, and at most
	clock         uint64           // counts holds
	stats         TraceCacheStats
}

// walk is one sweep spec's progress through its grid.
type walk struct {
	g       *sweepGrid
	p       TraceParams
	whole   int    // mapSpec sweeps running every job of the spec here
	running int    // jobs of the spec holding entries
	last    uint64 // clock at the spec's latest job
	cursor  int    // furthest benchmark position held; -1 before any
	seen    []int  // jobs held per benchmark position
}

func (w *walk) key(b int) traceKey { return traceKey{bench: w.g.benches[b], p: w.p} }

type traceEntry struct {
	key   traceKey
	users int    // jobs holding the entry; guarded by traceCache.mu
	born  uint64 // clock at the miss that created the entry
	once  sync.Once
	idx   *TraceIndex
	err   error
}

// walkLocked returns the walk of a spec, starting it if new.
func (c *traceCache) walkLocked(spec string, g *sweepGrid, p TraceParams) *walk {
	if c.walks == nil {
		c.walks, c.m = make(map[string]*walk), make(map[traceKey]*traceEntry)
	}
	if c.walks[spec] == nil {
		c.walks[spec] = &walk{g: g, p: p, cursor: -1, seen: make([]int, len(g.benches))}
	}
	return c.walks[spec]
}

// whole marks spec's walk whole until end is called: every job of the
// spec runs on this runner.
func (c *traceCache) whole(spec string, g *sweepGrid, p TraceParams) (end func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.walkLocked(spec, g, p)
	w.whole++
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if w.whole--; w.whole == 0 {
			delete(c.walks, spec)
		}
		c.evictLocked()
	}
}

// hold holds the trace of job i's benchmark until release is called; a
// trace without an entry is a miss. It forgets the least recently used
// idle walks beyond peak.
func (c *traceCache) hold(spec string, g *sweepGrid, p TraceParams, i int) (e *traceEntry, release func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.walkLocked(spec, g, p)
	c.clock++
	c.running++
	c.peak = max(c.peak, c.running)
	w.last = c.clock
	w.running++
	b := i / g.perBench
	w.seen[b]++
	w.cursor = max(w.cursor, b)
	if e = c.m[w.key(b)]; e != nil {
		c.stats.Hits++
	} else {
		c.stats.Misses++
		e = &traceEntry{key: w.key(b), born: c.clock}
		c.m[e.key] = e
	}
	e.users++
	var idle []string
	for s, v := range c.walks {
		if v.whole == 0 && v.running == 0 {
			idle = append(idle, s)
		}
	}
	slices.SortFunc(idle, func(a, b string) int { return cmp.Compare(c.walks[a].last, c.walks[b].last) })
	for _, s := range idle[:max(0, len(idle)-c.peak)] {
		delete(c.walks, s)
	}
	c.evictLocked()
	return e, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.running--
		w.running--
		e.users--
		c.evictLocked()
	}
}

// evictLocked drops every idle entry no walk needs.
func (c *traceCache) evictLocked() {
	need := make(map[traceKey]bool)
	for _, w := range c.walks {
		for b, n := range w.seen {
			switch {
			case w.whole > 0 && n > 0 && n < w.g.perBench, w.whole == 0 && b == w.cursor:
				need[w.key(b)] = true
			case b > w.cursor:
				if e := c.m[w.key(b)]; e != nil && e.born < w.last {
					need[e.key] = true
				}
			}
		}
	}
	for key, e := range c.m {
		if e.users == 0 && !need[key] {
			c.stats.Evictions++
			delete(c.m, key)
		}
	}
}

// load returns the entry's trace index, generating it on first use as
// per-core streams that the index wraps as they are.
func (e *traceEntry) load() (*TraceIndex, error) {
	e.once.Do(func() { e.idx, e.err = GenerateIndex(e.key.bench, e.key.p) })
	return e.idx, e.err
}

// SweepRunner executes sweep jobs against a trace cache. It is the
// Dispatcher every in-process sweep runs through, and the function a
// dsweep worker hands every job it pulls (RunJob has the dsweep.JobRunner
// shape); CacheStats exposes the cache's counters for the Result protocol
// (dsweep.WorkOptions.CacheStats).
type SweepRunner struct {
	cache traceCache
	// pool keeps finished Systems for the next jobs, at most as many as
	// the runner has ever run jobs at once (cache.peak).
	pool sim.Pool
}

// NewSweepRunner builds a job executor. RunJob decodes the SweepSpec,
// regenerates the job's benchmark trace (shared with concurrent and
// consecutive jobs on the same benchmark, so an in-process sweep pays
// each generation once), runs the job on a pooled System and returns its
// JSON-encoded SweepCell. Errors are deterministic job failures; the
// coordinator fails the job rather than retrying it elsewhere.
func NewSweepRunner() *SweepRunner { return &SweepRunner{} }

// CacheStats snapshots the runner's trace-cache counters. Safe for
// concurrent use with RunJob.
func (r *SweepRunner) CacheStats() TraceCacheStats {
	r.cache.mu.Lock()
	defer r.cache.mu.Unlock()
	return r.cache.stats
}

// RunJob executes job i of the grid rawSpec describes on a System from
// the runner's pool: a simulation job replays its trace, a
// payload-analysis job replays its private-level misses through the
// System's LLC.
func (r *SweepRunner) RunJob(_ context.Context, rawSpec []byte, i int) (json.RawMessage, error) {
	var spec SweepSpec
	if err := json.Unmarshal(rawSpec, &spec); err != nil {
		return nil, fmt.Errorf("hmccoal: sweep spec: %w", err)
	}
	g, err := spec.compile()
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= g.n() {
		return nil, fmt.Errorf("hmccoal: job index %d outside the %d-job grid", i, g.n())
	}
	e, release := r.cache.hold(string(rawSpec), g, spec.Params, i)
	defer release()
	raw, err := r.run(g, e, i)
	if err != nil {
		return nil, fmt.Errorf("hmccoal: job %d (%s): %w", i, g.name(i), err)
	}
	return raw, nil
}

// run runs grid job i on a pooled System, returns the System to the pool
// once the job succeeds, and encodes the job's cell.
func (r *SweepRunner) run(g *sweepGrid, e *traceEntry, i int) ([]byte, error) {
	idx, err := e.load()
	if err != nil {
		return nil, err
	}
	pay := g.isPayload(i)
	cfg := g.base
	if !pay {
		cfg = g.cfg(i)
	}
	sys, err := r.pool.Get(cfg)
	if err != nil {
		return nil, err
	}
	var cell SweepCell
	if pay {
		cell.Pay, err = sys.AnalyzePayload(idx, cfg.Coalescer.Width)
	} else {
		cell.Res, err = sys.RunIndexed(idx)
	}
	if err != nil {
		return nil, err
	}
	r.cache.mu.Lock()
	limit := r.cache.peak
	r.cache.mu.Unlock()
	r.pool.Put(sys, limit)
	return json.Marshal(cell)
}
