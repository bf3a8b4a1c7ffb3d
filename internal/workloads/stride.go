package workloads

import (
	"fmt"

	"hmccoal/internal/trace"
)

// strideLadder is the ladder of line strides the stride microbenchmarks
// sweep: stride 1 walks adjacent cache lines (miss runs coalesce into
// large HMC packets), stride 2 leaves every other line untouched, and by
// stride 4 each miss lands in its own HMC block — the classic GPU
// memory-coalescing ladder. Because the coalescer never fetches hole
// lines, merging collapses as soon as misses stop being adjacent, so the
// ladder localizes exactly where each front-end's merge opportunity dies.
var strideLadder = []int{1, 2, 4, 8, 16, 32}

// StrideLadder returns the stride microbenchmark generators in ladder
// order. They are resolvable through ByName ("stride1" … "stride32") but
// deliberately not part of All(): the paper's 12-benchmark figures and
// the golden metrics never see them.
func StrideLadder() []Generator {
	gens := make([]Generator, len(strideLadder))
	for i, s := range strideLadder {
		gens[i] = strideGen{lines: s}
	}
	return gens
}

// StrideNames returns the stride microbenchmark names in ladder order.
func StrideNames() []string {
	names := make([]string, len(strideLadder))
	for i, s := range strideLadder {
		names[i] = fmt.Sprintf("stride%d", s)
	}
	return names
}

// strideGen walks memory with a fixed cache-line stride: the pure-load
// pointer-walk microbenchmark behind the front-end efficiency ladder.
type strideGen struct {
	lines int // stride between consecutive touches, in cache lines
}

func (g strideGen) Name() string { return fmt.Sprintf("stride%d", g.lines) }

func (g strideGen) Description() string {
	return fmt.Sprintf("stride ladder: per-core load walk touching every %d-th cache line", g.lines)
}

func (g strideGen) Generate(p Params) (trace.Streams, error) {
	return build(p, 0x51AD<<8|int64(g.lines), func(c *core, ops int) {
		a := chunk(regionBase(3), 1<<24, c.cpu)
		step := uint64(g.lines) * 64
		for i := 0; i < ops; i++ {
			c.access(a, 64, trace.Load, 2)
			a += step
			// A short compute phase every vector's worth of touches keeps
			// the cores from saturating the front-end permanently, so the
			// timeout/warp-close machinery actually cycles.
			if i%64 == 63 {
				c.think(800)
			}
		}
	})
}
