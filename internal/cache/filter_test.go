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
// multi-word miss mask). About a third of the accesses start a run of
// one to four loads and stores, each mostly inside the last line the
// access before it touched: the repeats FilterPrivate answers with
// Cache.Rehit. A store repeat after a load fill dirties the line without
// a set search, which the L1 write-back count then checks.
func filterTrace(rng *rand.Rand, cpus int) [][]trace.Access {
	streams := make([][]trace.Access, cpus)
	for c := range streams {
		n := rng.Intn(160)
		var tick uint64
		for len(streams[c]) < n {
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
			if a.Kind == trace.FenceOp || rng.Intn(3) != 0 {
				continue
			}
			for range 1 + rng.Intn(4) {
				// Mostly a repeat inside the last line a touched (lines
				// are 32 or 64 bytes, so an offset and size under 16 stay
				// inside either), sometimes inside its first line, which
				// is no repeat when a spans lines, and sometimes spanning
				// into the next lines.
				line := (a.End() - 1) &^ 31
				if rng.Intn(3) == 0 {
					line = a.Addr &^ 31
				}
				r := trace.Access{CPU: uint8(c), Tick: tick, Kind: trace.Load, Addr: line + uint64(rng.Intn(16)), Size: uint32(1 + rng.Intn(16))}
				if rng.Intn(4) == 0 {
					r.Size = uint32(1 + rng.Intn(100))
				}
				if rng.Intn(2) == 0 {
					r.Kind = trace.Store
				}
				streams[c] = append(streams[c], r)
				tick += uint64(rng.Intn(3))
				a = r
			}
		}
	}
	return streams
}

// TestRehitMatchesAccess holds Rehit to Access of the line the last
// Access touched, on the packed-stack path (4 ways) and the counter-LRU
// path (32 ways): after every operation both caches hold the same lines
// with the same dirty bits and recency, so the same later misses evict the
// same victims and write back the same lines.
func TestRehitMatchesAccess(t *testing.T) {
	for _, ways := range []int{4, 32} {
		cfg := Config{SizeBytes: uint64(4 * ways * 64), Ways: ways, LineBytes: 64}
		rehit, access := mustNew(t, cfg), mustNew(t, cfg)
		rng := rand.New(rand.NewSource(int64(ways)))
		span := uint64(8 * ways) // twice the cache's lines
		for i := 0; i < 4000; i++ {
			ln, write := uint64(rng.Int63n(int64(span))), rng.Intn(2) == 0
			hit, wb, hasWB := rehit.Access(ln, write)
			wantHit, wantWB, wantHasWB := access.Access(ln, write)
			if hit != wantHit || wb != wantWB || hasWB != wantHasWB {
				t.Fatalf("%d ways, op %d: Access(%d) = %v %d %v after Rehits, want %v %d %v",
					ways, i, ln, hit, wb, hasWB, wantHit, wantWB, wantHasWB)
			}
			for range rng.Intn(3) {
				write := rng.Intn(2) == 0
				rehit.Rehit(write)
				if hit, _, _ := access.Access(ln, write); !hit {
					t.Fatalf("%d ways, op %d: repeat of line %d missed", ways, i, ln)
				}
			}
			if rehit.Stats() != access.Stats() {
				t.Fatalf("%d ways, op %d: stats %+v, want %+v", ways, i, rehit.Stats(), access.Stats())
			}
		}
		if got, want := rehit.Flush(), access.Flush(); !slices.Equal(got, want) {
			t.Errorf("%d ways: dirty lines %v, want %v", ways, got, want)
		}
	}
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

// TestFilterRepeatOnFirstLine checks that only the last line an access
// touched counts as a repeat: a store on the first line of a load that
// spans two lines must dirty that line, so evicting it from the
// direct-mapped L1 writes it back.
func TestFilterRepeatOnFirstLine(t *testing.T) {
	cfg := filterShapes[2] // 1 KiB direct-mapped L1, 64-byte lines
	cfg.CPUs = 1
	accs := []trace.Access{
		{Kind: trace.Load, Addr: 0, Size: 128},     // lines 0 and 1
		{Kind: trace.Store, Addr: 8, Size: 8},      // line 0 again
		{Kind: trace.Load, Addr: 1 << 10, Size: 8}, // line 16 evicts line 0
	}
	pf, err := FilterPrivate(cfg, accs, []int32{0, int32(len(accs))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Accesses: 4, Hits: 1, Misses: 3, WriteBacks: 1}); pf.L1Stats != want {
		t.Errorf("L1 stats %+v, want %+v", pf.L1Stats, want)
	}
}
