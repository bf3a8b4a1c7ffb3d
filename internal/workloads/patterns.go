package workloads

import "hmccoal/internal/trace"

// The generators below model each benchmark's dominant loops. Comments cite
// the structure being mimicked; constants are calibrated so the two-phase
// coalescing efficiency ordering matches Figure 8 (FT highest ≈75%, EP and
// SSCA2 lowest) and traffic volume ordering matches Figure 11 (LU and SP
// move the most data).

// sgGen models the Scatter/Gather kernel: a sequential index stream drives
// gathers of medium-sized records from a large table, then scatters updates
// back. Index traffic coalesces well; record traffic yields short runs.
type sgGen struct{}

func (sgGen) Name() string { return "SG" }
func (sgGen) Description() string {
	return "scatter/gather: sequential index stream + 128 B record gathers from a 512 MiB table"
}
func (sgGen) Generate(p Params) (trace.Streams, error) {
	idxBase, dataBase := regionBase(1), regionBase(2)
	const table = 512 << 20
	return build(p, 0x5601, func(c *core, ops int) {
		idx := chunk(idxBase, 64<<20, c.cpu)
		for n := 0; n < ops; {
			// Read a run of indices (vectorized 8 B loads).
			c.burst(idx, 64, 8, trace.Load, 1)
			idx += 64
			n += 8
			// Gather eight 128 B records at random table offsets.
			for g := 0; g < 8 && n < ops; g++ {
				rec := dataBase + uint64(c.rng.Int63n(table/128))*128
				c.burst(rec, 128, 16, trace.Load, 1)
				n += 8
				if c.rng.Intn(4) == 0 { // occasional scatter back
					c.access(rec, 16, trace.Store, 1)
					n++
				}
				c.think(300)
			}
			c.think(100)
		}
	})
}

// streamGen models McCalpin STREAM triad with the unrolled copy loops real
// compilers emit: whole 256 B chunks of a, b are read and c written back to
// back, producing long adjacent-line runs on three streams.
type streamGen struct{}

func (streamGen) Name() string { return "STREAM" }
func (streamGen) Description() string {
	return "STREAM triad: three sequential streams in 256 B unrolled chunks"
}
func (streamGen) Generate(p Params) (trace.Streams, error) {
	aBase, bBase, cBase := regionBase(1), regionBase(2), regionBase(3)
	return build(p, 0x57E4, func(c *core, ops int) {
		ops = ops * 3 / 2 // STREAM is pure memory traffic
		a := chunk(aBase, 64<<20, c.cpu)
		b := chunk(bBase, 64<<20, c.cpu)
		dst := chunk(cBase, 64<<20, c.cpu)
		for n := 0; n < ops; n += 96 {
			c.burst(a, 256, 8, trace.Load, 1)
			c.burst(b, 256, 8, trace.Load, 1)
			c.burst(dst, 256, 8, trace.Store, 1)
			a += 256
			b += 256
			dst += 256
			c.think(5800)
		}
	})
}

// hpcgGen models the HPCG sparse matrix-vector multiply: per row, a
// sequential stream of 16 B matrix values and 8 B column indices plus
// banded gathers into the x vector. The 16 B value payloads dominate the
// request-size mix, reproducing Figure 10.
type hpcgGen struct{}

func (hpcgGen) Name() string { return "HPCG" }
func (hpcgGen) Description() string {
	return "HPCG SpMV: 16 B value/index streams + banded x-vector gathers"
}
func (hpcgGen) Generate(p Params) (trace.Streams, error) {
	valBase, colBase, xBase := regionBase(1), regionBase(2), regionBase(3)
	const band = 24 << 20 // x-vector working band: misses often
	return build(p, 0x4647, func(c *core, ops int) {
		vals := chunk(valBase, 96<<20, c.cpu)
		cols := chunk(colBase, 48<<20, c.cpu)
		diag := uint64(0)
		for n := 0; n < ops; {
			// 27-point row: 27 values (16 B each) and column indices.
			c.burst(vals, 27*16, 16, trace.Load, 1)
			vals += 27 * 16
			n += 27
			c.burst(cols, 27*8, 8, trace.Load, 1)
			cols += 27 * 8
			n += 27
			// Sparse gathers around the diagonal: isolated 16 B loads.
			for g := 0; g < 6 && n < ops; g++ {
				off := diag + uint64(c.rng.Int63n(band))
				c.access(xBase+off%uint64(band), 16, trace.Load, 2)
				n++
			}
			diag += 64
			c.think(3200)
		}
	})
}

// ssca2Gen models the SSCA2 graph-analysis kernel: random vertex and edge
// lookups over a large graph with small payloads — the canonical
// low-locality, hard-to-coalesce pattern.
type ssca2Gen struct{}

func (ssca2Gen) Name() string { return "SSCA2" }
func (ssca2Gen) Description() string {
	return "SSCA2 graph kernel: random 8 B vertex/edge chasing over a 1 GiB graph"
}
func (ssca2Gen) Generate(p Params) (trace.Streams, error) {
	vtxBase, adjBase, visBase := regionBase(1), regionBase(2), regionBase(3)
	const verts = 1 << 27 // 128 M vertices × 8 B = 1 GiB
	return build(p, 0x55CA, func(c *core, ops int) {
		for n := 0; n < ops; {
			v := uint64(c.rng.Int63n(verts))
			c.access(vtxBase+v*8, 8, trace.Load, 2)
			n++
			// Walk a short adjacency run (power-law-ish degree).
			deg := 1 + c.rng.Intn(4)
			c.burst(adjBase+v*32, uint32(deg*8), 8, trace.Load, 2)
			n += deg
			// Mark a visited bit somewhere unrelated.
			if c.rng.Intn(2) == 0 {
				w := uint64(c.rng.Int63n(verts))
				c.access(visBase+w*8, 8, trace.Store, 2)
				n++
			}
			c.think(24)
		}
	})
}

// sparseLUGen models the BOTS SparseLU factorization: block operations on
// 32 KiB dense sub-blocks. Each task streams whole block rows, giving long
// runs and heavy store traffic.
type sparseLUGen struct{}

func (sparseLUGen) Name() string { return "SparseLU" }
func (sparseLUGen) Description() string {
	return "BOTS SparseLU: 256 B row-segment streams over random 32 KiB blocks"
}
func (sparseLUGen) Generate(p Params) (trace.Streams, error) {
	matBase := regionBase(1)
	const blocks = 16384 // 16384 × 32 KiB = 512 MiB matrix
	return build(p, 0x5B10, func(c *core, ops int) {
		ops = ops * 3 / 2
		for n := 0; n < ops; {
			blk := matBase + uint64(c.rng.Intn(blocks))*32768
			src := matBase + uint64(c.rng.Intn(blocks))*32768
			// bmod inner loop: read a row segment of each operand block,
			// write the row segment back.
			for row := 0; row < 4 && n < ops; row++ {
				c.burst(src+uint64(row)*512, 256, 8, trace.Load, 1)
				c.burst(blk+uint64(row)*512, 256, 8, trace.Load, 1)
				c.burst(blk+uint64(row)*512, 256, 8, trace.Store, 1)
				n += 96
				c.think(300)
			}
			c.think(13000)
		}
	})
}

// sortGen models the BOTS mergesort: two sequential input runs consumed in
// alternation and one sequential output stream.
type sortGen struct{}

func (sortGen) Name() string { return "Sort" }
func (sortGen) Description() string {
	return "BOTS Sort: two alternating sequential read runs merged into one write stream"
}
func (sortGen) Generate(p Params) (trace.Streams, error) {
	aBase, bBase, oBase := regionBase(1), regionBase(2), regionBase(3)
	return build(p, 0x50FF, func(c *core, ops int) {
		a := chunk(aBase, 64<<20, c.cpu)
		b := chunk(bBase, 64<<20, c.cpu)
		out := chunk(oBase, 128<<20, c.cpu)
		for n := 0; n < ops; {
			// Merge consumes an unpredictable amount of each run.
			take := uint32(64 + 64*c.rng.Intn(3)) // 64..192 B
			if c.rng.Intn(2) == 0 {
				c.burst(a, take, 8, trace.Load, 1)
				a += uint64(take)
			} else {
				c.burst(b, take, 8, trace.Load, 1)
				b += uint64(take)
			}
			c.burst(out, take, 8, trace.Store, 1)
			out += uint64(take)
			n += int(take / 4)
			c.think(700)
		}
	})
}

// healthGen models the BOTS Health simulation: linked-list patient queues
// chased through a large arena — isolated small accesses with stores on the
// same nodes.
type healthGen struct{}

func (healthGen) Name() string { return "Health" }
func (healthGen) Description() string {
	return "BOTS Health: 32 B node chases with in-place updates across a 768 MiB arena"
}
func (healthGen) Generate(p Params) (trace.Streams, error) {
	arena := regionBase(1)
	const nodes = 24 << 20 // 24 M × 32 B = 768 MiB
	return build(p, 0x4EA1, func(c *core, ops int) {
		prev := arena
		for n := 0; n < ops; {
			// Chase a short queue of patients.
			hops := 2 + c.rng.Intn(4)
			for h := 0; h < hops && n < ops; h++ {
				var node uint64
				if c.rng.Intn(10) < 3 {
					// Allocation order survives in the lists: some hops
					// land on the neighbouring node.
					node = prev + 32
				} else {
					node = arena + uint64(c.rng.Int63n(nodes))*32
				}
				prev = node
				c.access(node, 32, trace.Load, 3)
				n++
				if c.rng.Intn(3) == 0 {
					c.access(node, 16, trace.Store, 2) // update in place: L1 hit
					n++
				}
			}
			c.think(48)
		}
	})
}

// ftGen models the NAS FT 3D-FFT transpose phases: whole 256 B groups of
// complex values are copied between arrays back to back. This is the most
// coalescable and among the most memory-intensive patterns — the paper's
// best case (≈75% coalescing efficiency).
type ftGen struct{}

func (ftGen) Name() string { return "FT" }
func (ftGen) Description() string {
	return "NAS FT transpose: 256 B complex-group copies, load+store streams"
}
func (ftGen) Generate(p Params) (trace.Streams, error) {
	srcBase, dstBase := regionBase(1), regionBase(2)
	return build(p, 0xF77, func(c *core, ops int) {
		ops = ops * 2 // FT moves a lot of data
		src := chunk(srcBase, 128<<20, c.cpu)
		dst := chunk(dstBase, 128<<20, c.cpu)
		for n := 0; n < ops; {
			c.burst(src, 256, 16, trace.Load, 1)
			src += 256
			c.burst(dst, 256, 16, trace.Store, 1)
			dst += 256
			n += 32
			if c.rng.Intn(2) == 0 {
				// The butterfly re-reads a boundary column of the group a
				// beat later, while its fill is still outstanding — a
				// repeat touch that the MSHRs merge as a subentry.
				c.think(120)
				c.access(src-256, 16, trace.Load, 2)
				n++
			}
			c.think(3400)
		}
	})
}

// epGen models NAS EP: compute-bound random-number generation whose tiny
// working set almost always hits. The rare misses are isolated — the
// paper's worst case for coalescing and the smallest speedup.
type epGen struct{}

func (epGen) Name() string { return "EP" }
func (epGen) Description() string {
	return "NAS EP: compute-bound with rare isolated 16 B table misses"
}
func (epGen) Generate(p Params) (trace.Streams, error) {
	tblBase, accBase := regionBase(1), regionBase(2)
	const tbl = 256 << 20
	return build(p, 0xE9, func(c *core, ops int) {
		ops = ops / 3                       // little memory traffic
		hot := chunk(accBase, 1<<16, c.cpu) // per-core 64 KiB accumulators: hits
		res := chunk(regionBase(3), 32<<20, c.cpu)
		for n := 0; n < ops; {
			c.think(240)
			c.access(tblBase+uint64(c.rng.Int63n(tbl/16))*16, 16, trace.Load, 4)
			n++
			c.access(hot+uint64(c.rng.Intn(1<<10))*64, 8, trace.Store, 4)
			n++
			if n%32 == 0 {
				// Periodic result-batch flush: a short sequential store
				// burst — EP's only coalescable traffic.
				c.burst(res, 128, 16, trace.Store, 1)
				res += 128
				n += 8
			}
		}
	})
}

// spGen models the NAS SP pentadiagonal solver: plane sweeps streaming
// several grid faces at once in 160 B row segments — medium-length runs at
// very high volume (one of the two biggest bandwidth consumers).
type spGen struct{}

func (spGen) Name() string { return "SP" }
func (spGen) Description() string {
	return "NAS SP: multi-stream plane sweeps, 160 B row segments, highest volume"
}
func (spGen) Generate(p Params) (trace.Streams, error) {
	gridBase, rhsBase := regionBase(1), regionBase(2)
	return build(p, 0x59, func(c *core, ops int) {
		ops = ops * 6 // SP's traffic dwarfs the other benchmarks
		g := chunk(gridBase, 192<<20, c.cpu)
		r := chunk(rhsBase, 192<<20, c.cpu)
		for n := 0; n < ops; {
			c.burst(g, 256, 8, trace.Load, 1)
			g += 256
			c.burst(r, 256, 8, trace.Load, 1)
			c.burst(r, 256, 8, trace.Store, 1)
			r += 256
			n += 96
			c.think(3700)
		}
	})
}

// luGen models the NAS LU SSOR solver: long sequential sweeps over the
// solution grid with read-modify-write rows — long runs at very high
// volume (the other biggest bandwidth consumer).
type luGen struct{}

func (luGen) Name() string { return "LU" }
func (luGen) Description() string {
	return "NAS LU: 320 B SSOR row sweeps, read-modify-write, highest volume"
}
func (luGen) Generate(p Params) (trace.Streams, error) {
	uBase, fBase := regionBase(1), regionBase(2)
	return build(p, 0x117, func(c *core, ops int) {
		ops = ops * 6
		u := chunk(uBase, 192<<20, c.cpu)
		f := chunk(fBase, 192<<20, c.cpu)
		for n := 0; n < ops; {
			c.burst(u, 256, 8, trace.Load, 1)
			c.burst(f, 256, 8, trace.Load, 1)
			f += 256
			c.burst(u, 256, 8, trace.Store, 1)
			u += 256
			n += 96
			c.think(4600)
		}
	})
}

// cgGen models the NAS CG conjugate-gradient solver: a sparse SpMV with
// random column gathers over a large vector plus short value streams.
type cgGen struct{}

func (cgGen) Name() string { return "CG" }
func (cgGen) Description() string {
	return "NAS CG: 128 B value streams + random 8 B gathers over a 512 MiB vector"
}
func (cgGen) Generate(p Params) (trace.Streams, error) {
	valBase, xBase := regionBase(1), regionBase(2)
	const vec = 512 << 20
	return build(p, 0xC6, func(c *core, ops int) {
		vals := chunk(valBase, 96<<20, c.cpu)
		for n := 0; n < ops; {
			c.burst(vals, 128, 8, trace.Load, 1)
			vals += 128
			n += 16
			for g := 0; g < 6 && n < ops; g++ {
				c.access(xBase+uint64(c.rng.Int63n(vec/8))*8, 8, trace.Load, 2)
				n++
			}
			c.think(980)
		}
	})
}
