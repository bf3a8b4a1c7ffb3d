// Package workloads generates synthetic memory traces reproducing the
// access-pattern *shape* of the paper's 12 evaluation benchmarks: SG,
// STREAM, HPCG, SSCA2, BOTS (SparseLU, Sort, Health) and NAS-PB (FT, EP,
// SP, LU, CG).
//
// The original evaluation ran the real benchmarks on the RISC-V Spike
// simulator and traced the LLC. That substrate is replaced here (see
// DESIGN.md): what the coalescer sees is only the spatial/temporal
// structure of the miss stream, so each generator is built from the
// benchmark's dominant loop structure — burst length (how many consecutive
// bytes a core touches back-to-back), request payload sizes, the
// sequential/random mix, store ratio and compute think-time. Burst length
// is the property that governs coalescability: FT's transpose copies whole
// 256 B groups, so its misses arrive as runs of adjacent lines, while
// SSCA2's edge chasing emits isolated single-line misses.
package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hmccoal/internal/trace"
)

// Params scales a generated trace.
type Params struct {
	// CPUs is the number of cores generating accesses (paper: 12).
	CPUs int
	// OpsPerCPU is the approximate number of memory accesses per core at
	// weight 1.0; generators scale it by their relative traffic volume.
	OpsPerCPU int
	// Seed makes the trace deterministic.
	Seed int64
	// ThinkScale multiplies every generator's compute think time; 0 means
	// 1.0 (the calibrated balance). Below 1 pushes the system toward
	// memory saturation, above 1 toward compute-bound operation. It must
	// be finite and non-negative.
	ThinkScale float64
}

// DefaultParams returns the paper's 12-CPU setup at a laptop-scale volume.
func DefaultParams() Params {
	return Params{CPUs: 12, OpsPerCPU: 20000, Seed: 1}
}

func (p Params) validate() error {
	if p.CPUs <= 0 || p.CPUs > 256 {
		return fmt.Errorf("workloads: CPUs %d out of range", p.CPUs)
	}
	if p.OpsPerCPU <= 0 {
		return fmt.Errorf("workloads: OpsPerCPU %d must be positive", p.OpsPerCPU)
	}
	// A negative scale would wrap a core's uint64 clock backwards.
	if p.ThinkScale < 0 || math.IsNaN(p.ThinkScale) || math.IsInf(p.ThinkScale, 0) {
		return fmt.Errorf("workloads: ThinkScale %v must be finite and non-negative", p.ThinkScale)
	}
	return nil
}

// Generator produces the access trace of one benchmark.
type Generator interface {
	// Name is the benchmark's short name as used in the paper's figures.
	Name() string
	// Description summarizes the access pattern being modeled.
	Description() string
	// Generate builds one access stream per core.
	Generate(p Params) (trace.Streams, error)
}

// All returns the 12 paper benchmarks in figure order.
func All() []Generator {
	return []Generator{
		sgGen{}, hpcgGen{}, ssca2Gen{}, streamGen{},
		sparseLUGen{}, sortGen{}, healthGen{},
		ftGen{}, epGen{}, spGen{}, luGen{}, cgGen{},
	}
}

// Names returns the benchmark names in figure order.
func Names() []string {
	gens := All()
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Name()
	}
	return names
}

// ByName finds a generator by its (case-sensitive) benchmark name. The
// stride-ladder microbenchmarks (StrideLadder) resolve here too, without
// being part of All()'s figure grid.
func ByName(name string) (Generator, bool) {
	for _, g := range All() {
		if g.Name() == name {
			return g, true
		}
	}
	for _, g := range StrideLadder() {
		if g.Name() == name {
			return g, true
		}
	}
	return nil, false
}

// core builds one CPU's access stream.
type core struct {
	accs       []trace.Access
	tick       uint64
	cpu        uint8
	rng        *rand.Rand
	thinkScale float64
}

// access emits one operation and advances the core's clock by gap cycles.
func (c *core) access(addr uint64, size uint32, kind trace.Kind, gap uint64) {
	c.accs = append(c.accs, trace.Access{
		Addr: addr, Size: size, Kind: kind, CPU: c.cpu, Tick: c.tick,
	})
	c.tick += gap
}

// burst emits total bytes as back-to-back accesses of `unit` bytes starting
// at base — the bulk-copy/vector-loop shape that produces adjacent-line
// miss runs. The out-of-order window dispatches the whole burst together,
// so every access carries the same tick; the issue cost (gap per access)
// is charged after the burst.
func (c *core) burst(base uint64, total, unit uint32, kind trace.Kind, gap uint64) {
	n := uint64(0)
	for off := uint32(0); off < total; off += unit {
		sz := unit
		if off+sz > total {
			sz = total - off
		}
		c.access(base+uint64(off), sz, kind, 0)
		n++
	}
	c.tick += gap * n
}

// think advances the core's clock without memory activity. The actual
// span is jittered uniformly in [cycles/2, 3·cycles/2): real task and loop
// bodies vary, and the jitter keeps the cores from phase-locking into
// all-saturated or all-idle memory regimes.
func (c *core) think(cycles uint64) {
	if cycles == 0 {
		return
	}
	span := cycles/2 + uint64(c.rng.Int63n(int64(cycles)))
	c.tick += uint64(float64(span) * c.thinkScale)
}

// build runs fn once per CPU, one core after another, appending every
// core's stream to one shared array. Each stream is in tick order
// (validate rejects the think scales that could wrap a core's clock), so
// the trace is ready for the tick loop as it stands; readers that need the
// global order merge the streams on the fly (trace.Streams.Merged).
func build(p Params, seedSalt int64, fn func(c *core, ops int)) (trace.Streams, error) {
	if err := p.validate(); err != nil {
		return trace.Streams{}, err
	}
	scale := p.ThinkScale
	if scale == 0 {
		scale = 1
	}
	st := trace.Streams{Off: make([]int32, p.CPUs+1)}
	for cpu := 0; cpu < p.CPUs; cpu++ {
		c := &core{
			accs:       st.Accs,
			cpu:        uint8(cpu),
			rng:        rand.New(rand.NewSource(p.Seed ^ seedSalt ^ int64(cpu)*0x9E3779B9)),
			thinkScale: scale,
		}
		// Desynchronize the cores slightly, as real threads are.
		c.tick = uint64(c.rng.Intn(64))
		fn(c, p.OpsPerCPU)
		st.Accs = c.accs
		if cpu == 0 { // cores emit similar volumes: size the array from core 0
			st.Accs = slices.Grow(st.Accs, len(st.Accs)*(p.CPUs-1)+len(st.Accs)*p.CPUs/8)
		}
		st.Off[cpu+1] = int32(len(st.Accs))
	}
	return st, nil
}

// Address-space layout: each logical array lives in its own 1 GiB region so
// generators cannot collide.
const region = 1 << 30

func regionBase(n int) uint64 { return uint64(n) * region }

// chunk gives CPU i an exclusive slice of a shared array, mirroring OpenMP
// static scheduling. Each core's slice is additionally skewed by 11 HMC
// blocks: a power-of-two partition stride would start every thread on the
// same vault and serialize the device, which no real heap layout does.
func chunk(base uint64, perCPU uint64, cpu uint8) uint64 {
	return base + uint64(cpu)*perCPU + uint64(cpu)*11*256
}
