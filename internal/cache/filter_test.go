package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hmccoal/internal/trace"
)

// filterShapes are the private-level shapes FuzzPrivateFilter draws from,
// each with a small LLC so dirty LLC victims are frequent. They include a
// 32-way L1 and a 64-way L2 (the counter-LRU path past lruStackWays), a
// direct-mapped L1 and 32-byte lines.
var filterShapes = []HierarchyConfig{
	{
		L1:  Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64},
		L2:  Config{SizeBytes: 16 << 10, Ways: 8, LineBytes: 64},
		LLC: Config{SizeBytes: 32 << 10, Ways: 16, LineBytes: 64},
	},
	{
		L1:  Config{SizeBytes: 4 << 10, Ways: 32, LineBytes: 64},
		L2:  Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64},
		LLC: Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64},
	},
	{
		L1:  Config{SizeBytes: 1 << 10, Ways: 1, LineBytes: 64},
		L2:  Config{SizeBytes: 16 << 10, Ways: 64, LineBytes: 64},
		LLC: Config{SizeBytes: 16 << 10, Ways: 8, LineBytes: 64},
	},
	{
		L1:  Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 32},
		L2:  Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 32},
		LLC: Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 32},
	},
}

// filterTrace draws per-CPU streams from rng: loads, stores and fences
// over a footprint a few times the LLC, with payloads mostly inside a
// line, some spanning up to 20 lines and a few past 64 lines (a
// multi-word miss mask).
func filterTrace(rng *rand.Rand, cpus int) [][]trace.Access {
	streams := make([][]trace.Access, cpus)
	for c := range streams {
		n := rng.Intn(160)
		var tick uint64
		for range n {
			a := trace.Access{CPU: uint8(c), Tick: tick, Kind: trace.Load}
			switch r := rng.Intn(20); {
			case r == 0:
				a.Kind = trace.FenceOp
			case r < 8:
				a.Kind = trace.Store
			}
			if a.Kind != trace.FenceOp {
				a.Addr = uint64(rng.Intn(96 << 10))
				switch r := rng.Intn(40); {
				case r == 0:
					a.Size = uint32(2000 + rng.Intn(4000))
				case r < 6:
					a.Size = uint32(100 + rng.Intn(1200))
				default:
					a.Size = uint32(1 + rng.Intn(64))
				}
			}
			streams[c] = append(streams[c], a)
			tick += uint64(rng.Intn(3))
		}
	}
	return streams
}

// FuzzPrivateFilter holds the private-level filter to the full
// three-level walk (the oracle). The cores' streams are laid out either
// stream by stream (order nil) or interleaved with an order mapping
// stream positions to it, as sim.TraceIndex keeps a bucketed trace. The
// oracle and a lone LLC then see the streams in one random interleaving:
// the oracle walks each access through all three levels, the LLC replays
// only the lines the filter flags. Every access must produce the
// same LLC misses, write-backs included, and the filter's L1 and L2 totals
// and the LLC's counters must match the oracle's.
func FuzzPrivateFilter(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(4), false)
	f.Add(uint64(2), uint8(1), uint8(3), true)
	f.Add(uint64(3), uint8(2), uint8(2), false)
	f.Add(uint64(4), uint8(3), uint8(4), true)
	f.Add(uint64(5), uint8(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed uint64, shape, cpus uint8, bucketed bool) {
		cfg := filterShapes[int(shape)%len(filterShapes)]
		cfg.CPUs = 1 + int(cpus)%4
		rng := rand.New(rand.NewSource(int64(seed)))
		streams := filterTrace(rng, cfg.CPUs)

		// The replay interleaving: each step takes the next access of a
		// random core that has one left.
		var steps []uint8
		for c, s := range streams {
			for range s {
				steps = append(steps, uint8(c))
			}
		}
		rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })

		// Walk position of each core's first access, and the layout.
		off := make([]int32, cfg.CPUs+1)
		for c, s := range streams {
			off[c+1] = off[c] + int32(len(s))
		}
		var accs []trace.Access
		var order []int32
		if bucketed {
			// Store the accesses in another random interleaving; order
			// maps each stream position to its slot.
			order = make([]int32, off[cfg.CPUs])
			layout := slices.Clone(steps)
			rng.Shuffle(len(layout), func(i, j int) { layout[i], layout[j] = layout[j], layout[i] })
			next := slices.Clone(off[:cfg.CPUs])
			for _, c := range layout {
				order[next[c]] = int32(len(accs))
				accs = append(accs, streams[c][next[c]-off[c]])
				next[c]++
			}
		} else {
			accs = slices.Concat(streams...)
		}

		oracle, err := newOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		llc, err := New(cfg.LLC)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := FilterPrivate(cfg, accs, off, order)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]int32, cfg.CPUs)
		var got []Miss
		for _, c := range steps {
			p := off[c] + next[c]
			next[c]++
			a := streams[c][next[c]-1]
			want, err := oracle.Access(a)
			if err != nil {
				t.Fatal(err)
			}
			if got = llc.ReplayLLC(&pf, int(p), &a, got[:0]); !slices.Equal(got, want) {
				t.Fatalf("CPU %d access %d (%+v): LLC misses\n got %+v\nwant %+v", c, p-off[c], a, got, want)
			}
		}
		l1, l2 := oracle.levelStats()
		gotStats := fmt.Sprint(pf.L1Stats, pf.L2Stats, llc.Stats())
		if wantStats := fmt.Sprint(l1, l2, oracle.llc.Stats()); gotStats != wantStats {
			t.Fatalf("L1/L2/LLC stats: got %s, want %s", gotStats, wantStats)
		}
	})
}
